package cache

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRemote is an in-memory Remote for exercising the tier ordering
// without HTTP.
type fakeRemote struct {
	mu    sync.Mutex
	store map[Key][]byte
	gets  int
	puts  int
}

func newFakeRemote() *fakeRemote { return &fakeRemote{store: map[Key][]byte{}} }

func (f *fakeRemote) Get(ctx context.Context, key Key) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	data, ok := f.store[key]
	return data, ok
}

func (f *fakeRemote) Put(ctx context.Context, key Key, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.store[key] = data
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := KeyOf([]byte("hello"))
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("a", 63), strings.Repeat("a", 65)} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%q) should fail", bad)
		}
	}
}

func TestHRWRankDeterministicTotalOrder(t *testing.T) {
	names := []string{"c", "a", "b", "d"}
	k := KeyOf([]byte("some key"))
	first := HRWRank(k, names)
	if len(first) != len(names) {
		t.Fatalf("rank dropped names: %v", first)
	}
	seen := map[string]bool{}
	for _, n := range first {
		seen[n] = true
	}
	if len(seen) != len(names) {
		t.Fatalf("rank not a permutation: %v", first)
	}
	// Same result from a differently-ordered input slice.
	again := HRWRank(k, []string{"d", "b", "a", "c"})
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("ranking depends on input order: %v vs %v", first, again)
		}
	}
}

func TestHRWRankSpreadsKeys(t *testing.T) {
	names := []string{"w1", "w2", "w3"}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		top := HRWRank(keyN(i), names)[0]
		counts[top]++
	}
	for _, n := range names {
		if counts[n] < 30 {
			t.Fatalf("worker %s owns only %d/300 keys: %v", n, counts[n], counts)
		}
	}
}

func TestHRWRankStableUnderPeerRemoval(t *testing.T) {
	// Removing a peer must not reshuffle keys among the survivors:
	// every key not owned by the removed peer keeps its owner.
	all := []string{"w1", "w2", "w3"}
	rest := []string{"w1", "w3"}
	for i := 0; i < 200; i++ {
		before := HRWRank(keyN(i), all)[0]
		after := HRWRank(keyN(i), rest)[0]
		if before != "w2" && before != after {
			t.Fatalf("key %d moved %s -> %s on unrelated peer removal", i, before, after)
		}
	}
}

func TestRemoteTierHitSkipsComputeAndFillsDisk(t *testing.T) {
	dir := t.TempDir()
	remote := newFakeRemote()
	key := keyN(1)
	remote.store[key] = []byte("peer value")

	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	c.SetRemote(remote)
	v, err := getBytes(context.Background(), c, key, func() ([]byte, error) {
		t.Fatal("compute must not run on a remote hit")
		return nil, nil
	})
	if err != nil || string(v) != "peer value" {
		t.Fatalf("get: %q, %v", v, err)
	}
	s := c.Stats()
	if s.RemoteHits != 1 || s.RemoteMisses != 0 || s.Computes != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// The hit was written through to disk: a second instance sharing the
	// dir but with no remote tier finds it without computing.
	c2 := New(0)
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	v, err = getBytes(context.Background(), c2, key, func() ([]byte, error) {
		t.Fatal("compute must not run on a disk hit")
		return nil, nil
	})
	if err != nil || string(v) != "peer value" {
		t.Fatalf("warm get: %q, %v", v, err)
	}
}

func TestRemoteTierMissComputesAndPuts(t *testing.T) {
	remote := newFakeRemote()
	c := New(0)
	c.SetRemote(remote)
	key := keyN(2)
	v, err := getBytes(context.Background(), c, key, func() ([]byte, error) { return []byte("computed"), nil })
	if err != nil || string(v) != "computed" {
		t.Fatalf("get: %q, %v", v, err)
	}
	s := c.Stats()
	if s.RemoteMisses != 1 || s.RemoteHits != 0 || s.Computes != 1 || s.RemotePuts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if string(remote.store[key]) != "computed" {
		t.Fatalf("computed value not pushed to remote: %q", remote.store[key])
	}
	// Memory hit on re-lookup: the remote is not consulted again.
	if _, err := getBytes(context.Background(), c, key, func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if remote.gets != 1 {
		t.Fatalf("remote consulted %d times, want 1", remote.gets)
	}
}

func TestRemoteTierErrorsNotPushed(t *testing.T) {
	remote := newFakeRemote()
	c := New(0)
	c.SetRemote(remote)
	_, err := getBytes(context.Background(), c, keyN(3), func() ([]byte, error) { return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("want compute error")
	}
	if remote.puts != 0 {
		t.Fatalf("error result pushed to remote (%d puts)", remote.puts)
	}
}

func TestDisabledCacheSkipsRemote(t *testing.T) {
	remote := newFakeRemote()
	remote.store[keyN(4)] = []byte("peer value")
	c := New(0)
	c.SetRemote(remote)
	c.SetEnabled(false)
	v, err := getBytes(context.Background(), c, keyN(4), func() ([]byte, error) { return []byte("local"), nil })
	if err != nil || string(v) != "local" {
		t.Fatalf("get: %q, %v", v, err)
	}
	if remote.gets != 0 || remote.puts != 0 {
		t.Fatalf("disabled cache touched remote: %d gets, %d puts", remote.gets, remote.puts)
	}
}

func TestPeekBytes(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	memKey, diskKey, missKey := keyN(1), keyN(2), keyN(3)
	if _, err := getBytes(context.Background(), c, memKey, func() ([]byte, error) { return []byte("in memory"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := getBytes(context.Background(), c, diskKey, func() ([]byte, error) { return []byte("on disk"), nil }); err != nil {
		t.Fatal(err)
	}
	c.Reset() // diskKey now reachable only via disk

	if v, ok := c.PeekBytes(memKey); !ok || string(v) != "in memory" {
		t.Fatalf("peek mem: %q, %v", v, ok)
	}
	if v, ok := c.PeekBytes(diskKey); !ok || string(v) != "on disk" {
		t.Fatalf("peek disk: %q, %v", v, ok)
	}
	if _, ok := c.PeekBytes(missKey); ok {
		t.Fatal("peek of absent key must miss")
	}
	// A peek never consults the cache's own remote tier (peer recursion
	// guard) and never claims the key for compute.
	remote := newFakeRemote()
	remote.store[missKey] = []byte("peer value")
	c.SetRemote(remote)
	if _, ok := c.PeekBytes(missKey); ok {
		t.Fatal("peek must not consult the remote tier")
	}
	if remote.gets != 0 {
		t.Fatalf("peek hit the remote tier: %d gets", remote.gets)
	}
}

func TestPutBytes(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	key := keyN(1)
	c.PutBytes(key, []byte("pushed"))
	v, err := getBytes(context.Background(), c, key, func() ([]byte, error) {
		t.Fatal("compute must not run after PutBytes")
		return nil, nil
	})
	if err != nil || string(v) != "pushed" {
		t.Fatalf("get: %q, %v", v, err)
	}
	// The decoded push was written through to disk: visible to a fresh
	// instance.
	c2 := New(0)
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.PeekBytes(key); !ok || string(v) != "pushed" {
		t.Fatalf("disk write-through: %q, %v", v, ok)
	}
	// An existing entry wins over a later put.
	c.PutBytes(key, []byte("usurper"))
	if v, _ := c.PeekBytes(key); string(v) != "pushed" {
		t.Fatalf("existing entry displaced: %q", v)
	}
	// Disabled cache ignores puts entirely.
	c3 := New(0)
	c3.SetEnabled(false)
	c3.PutBytes(keyN(2), []byte("dropped"))
	c3.SetEnabled(true)
	if _, ok := c3.PeekBytes(keyN(2)); ok {
		t.Fatal("disabled put must be a no-op")
	}
}

// peerServer is a minimal GET/PUT /cache/{key} handler backed by a
// Cache, standing in for a specd worker.
func peerServer(t *testing.T, c *Cache) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := ParseKey(r.PathValue("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		data, ok := c.PeekBytes(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := ParseKey(r.PathValue("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.PutBytes(key, body)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestPeerRemoteGetPut(t *testing.T) {
	peerA, peerB := New(0), New(0)
	srvA := peerServer(t, peerA)
	srvB := peerServer(t, peerB)
	peers := []string{srvA.URL, srvB.URL}
	remote := NewPeerRemote(peers, nil, time.Second)

	key := keyN(1)
	if _, ok := remote.Get(context.Background(), key); ok {
		t.Fatal("empty peers must miss")
	}
	remote.Put(context.Background(), key, []byte("shared"))
	// The put landed on exactly the top-ranked peer.
	top := HRWRank(key, peers)[0]
	owner, other := peerA, peerB
	if top == srvB.URL {
		owner, other = peerB, peerA
	}
	if v, ok := owner.PeekBytes(key); !ok || string(v) != "shared" {
		t.Fatalf("top-ranked peer missing entry: %q, %v", v, ok)
	}
	if _, ok := other.PeekBytes(key); ok {
		t.Fatal("put must place one copy, not replicate")
	}
	if v, ok := remote.Get(context.Background(), key); !ok || string(v) != "shared" {
		t.Fatalf("remote get: %q, %v", v, ok)
	}
}

func TestPeerRemoteFallsThroughRankedPeers(t *testing.T) {
	peerA, peerB := New(0), New(0)
	srvA := peerServer(t, peerA)
	srvB := peerServer(t, peerB)
	peers := []string{srvA.URL, srvB.URL}
	remote := NewPeerRemote(peers, nil, time.Second)

	// Seed the entry on the *lower*-ranked peer only: a lookup must
	// still find it by falling through the ranking.
	key := keyN(7)
	ranked := HRWRank(key, peers)
	low := peerA
	if ranked[len(ranked)-1] == srvB.URL {
		low = peerB
	}
	low.PutBytes(key, []byte("far copy"))
	if v, ok := remote.Get(context.Background(), key); !ok || string(v) != "far copy" {
		t.Fatalf("fallthrough get: %q, %v", v, ok)
	}
}

func TestPeerRemoteDownPeerDegradesToMiss(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // permanently down
	remote := NewPeerRemote([]string{srv.URL}, nil, 200*time.Millisecond)
	if _, ok := remote.Get(context.Background(), keyN(1)); ok {
		t.Fatal("down peer must be a miss")
	}
	remote.Put(context.Background(), keyN(1), []byte("x")) // must not panic or block

	// And through the cache: the compute path still works.
	c := New(0)
	c.SetRemote(remote)
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { return []byte("local"), nil })
	if err != nil || string(v) != "local" {
		t.Fatalf("get with down remote: %q, %v", v, err)
	}
}

func TestPeerRemoteHonorsCtxCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	remote := NewPeerRemote([]string{slow.URL, slow.URL + "/second"}, nil, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := remote.Get(ctx, keyN(1))
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled get reported a hit")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled get did not return promptly")
	}
}

func TestPeerRemoteRejectsOversizedResponse(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(maxRemoteEntry+2))
		buf := make([]byte, 1<<20)
		var sent int64
		for sent <= maxRemoteEntry+1 {
			n, err := w.Write(buf)
			sent += int64(n)
			if err != nil {
				return
			}
		}
	}))
	defer huge.Close()
	remote := NewPeerRemote([]string{huge.URL}, nil, 5*time.Second)
	if _, ok := remote.Get(context.Background(), keyN(1)); ok {
		t.Fatal("oversized response must be a miss")
	}
}

// TestRemoteUndecodablePayloadRecomputed pins the fetch boundary: a
// peer response the codec rejects is counted corrupt, never written to
// disk, and recomputed.
func TestRemoteUndecodablePayloadRecomputed(t *testing.T) {
	dir := t.TempDir()
	remote := newFakeRemote()
	key := keyN(5)
	remote.store[key] = []byte("garbage")
	var sc strictCodec
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	c.SetRemote(remote)
	v, err := c.GetCtx(context.Background(), key, sc.codec(), func() (any, error) { return "computed", nil })
	if err != nil || v != "computed" {
		t.Fatalf("get: %v, %v", v, err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.RemoteHits != 0 || s.RemoteMisses != 1 || s.Computes != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt, 1 remote miss, 1 compute", s)
	}
	// the disk holds the computed encoding, not the peer's garbage
	if data, ok := New(0).peekDir(t, dir, key); !ok || string(data) != "v:computed" {
		t.Fatalf("disk entry = %q, %v", data, ok)
	}
}

// TestPushedPayloadDecodedOnFirstLookup pins the push boundary: a pushed
// payload is served to peers as pushed, satisfies the first local lookup
// with no compute, and only then reaches the disk tier; an undecodable
// one is counted corrupt, dropped and recomputed.
func TestPushedPayloadDecodedOnFirstLookup(t *testing.T) {
	dir := t.TempDir()
	var sc strictCodec
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	good, bad := keyN(1), keyN(2)
	c.PutBytes(good, []byte("v:pushed"))
	c.PutBytes(bad, []byte("garbage"))
	if data, ok := c.PeekBytes(good); !ok || string(data) != "v:pushed" {
		t.Fatalf("peek of a pushed payload: %q, %v", data, ok)
	}
	if _, ok := New(0).peekDir(t, dir, bad); ok {
		t.Fatal("an undecoded push reached the disk tier")
	}

	v, err := c.GetCtx(context.Background(), good, sc.codec(), func() (any, error) {
		t.Fatal("compute must not run for a decodable push")
		return nil, nil
	})
	if err != nil || v != "pushed" {
		t.Fatalf("get pushed: %v, %v", v, err)
	}
	if data, ok := New(0).peekDir(t, dir, good); !ok || string(data) != "v:pushed" {
		t.Fatalf("decoded push not written through: %q, %v", data, ok)
	}

	v, err = c.GetCtx(context.Background(), bad, sc.codec(), func() (any, error) { return "recomputed", nil })
	if err != nil || v != "recomputed" {
		t.Fatalf("get undecodable push: %v, %v", v, err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Computes != 1 || s.RemoteHits != 1 || s.RemoteMisses != 1 || s.MemHits != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt, 1 compute, 1 remote hit and miss, no memory hit", s)
	}
	if data, _ := c.PeekBytes(bad); string(data) != "v:recomputed" {
		t.Fatalf("peek after recompute = %q", data)
	}
}

// TestPeekBytesEncodesValues pins what a peer is served from memory: a
// codec-backed value encoded by its codec, and nothing for a
// memory-only entry.
func TestPeekBytesEncodesValues(t *testing.T) {
	var sc strictCodec
	c := New(0)
	if _, err := c.GetCtx(context.Background(), keyN(1), sc.codec(), func() (any, error) { return "x", nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(context.Background(), keyN(2), nil, func() (any, error) { return "memory only", nil }); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.PeekBytes(keyN(1)); !ok || string(data) != "v:x" {
		t.Fatalf("peek codec-backed value: %q, %v", data, ok)
	}
	if _, ok := c.PeekBytes(keyN(2)); ok {
		t.Fatal("peek must refuse a nil-codec entry")
	}
}

// TestComputeEncodesOnlyForOuterTiers pins that a value is serialized
// only when bytes must leave the process: never with memory alone, once
// per compute with a disk or remote tier.
func TestComputeEncodesOnlyForOuterTiers(t *testing.T) {
	var sc strictCodec
	c := New(0)
	for i := 0; i < 2; i++ {
		if _, err := c.GetCtx(context.Background(), keyN(1), sc.codec(), func() (any, error) { return "x", nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := sc.encodes.Load(); n != 0 {
		t.Fatalf("memory-only cache encoded %d times, want 0", n)
	}
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	c.SetRemote(newFakeRemote())
	if _, err := c.GetCtx(context.Background(), keyN(2), sc.codec(), func() (any, error) { return "y", nil }); err != nil {
		t.Fatal(err)
	}
	if n := sc.encodes.Load(); n != 1 {
		t.Fatalf("disk+remote compute encoded %d times, want 1", n)
	}
}
