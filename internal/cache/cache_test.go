package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func keyN(n int) Key { return KeyOf([]byte(fmt.Sprintf("key-%d", n))) }

// bytesCodec is the identity codec: byte values that cross every tier
// as they are.
var bytesCodec = &Codec{
	Encode: func(v any) []byte { return v.([]byte) },
	Decode: func(data []byte) (any, error) { return data, nil },
}

// getBytes is GetCtx for a byte-valued entry under bytesCodec.
func getBytes(ctx context.Context, c *Cache, key Key, compute func() ([]byte, error)) ([]byte, error) {
	v, err := c.GetCtx(ctx, key, bytesCodec, func() (any, error) { return compute() })
	data, _ := v.([]byte)
	return data, err
}

// strictCodec stands in for the trace and profile decoders: a string
// value travels as "v:" + value, and any other payload is rejected.
// encodes counts Encode calls.
type strictCodec struct{ encodes atomic.Int64 }

func (s *strictCodec) codec() *Codec {
	return &Codec{
		Encode: func(v any) []byte { s.encodes.Add(1); return []byte("v:" + v.(string)) },
		Decode: func(data []byte) (any, error) {
			if v, ok := strings.CutPrefix(string(data), "v:"); ok {
				return v, nil
			}
			return nil, errors.New("not a v: payload")
		},
	}
}

func TestKeyOfLengthPrefixed(t *testing.T) {
	if KeyOf([]byte("ab"), []byte("c")) == KeyOf([]byte("a"), []byte("bc")) {
		t.Fatal("KeyOf must distinguish part boundaries")
	}
	if KeyOf([]byte("a")) == KeyOf([]byte("a"), nil) {
		t.Fatal("KeyOf must distinguish part counts")
	}
	if KeyOf([]byte("a")) != KeyOf([]byte("a")) {
		t.Fatal("KeyOf must be deterministic")
	}
}

func TestMemoizeBytes(t *testing.T) {
	c := New(0)
	computes := 0
	get := func() ([]byte, error) {
		return getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			computes++
			return []byte("value"), nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || string(v) != "value" {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	s := c.Stats()
	if s.MemHits != 2 || s.MemMisses != 1 || s.Computes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestErrorsMemoized(t *testing.T) {
	c := New(0)
	computes := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			computes++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (deterministic failures are memoized)", computes)
	}
}

// TestSingleflight pins that concurrent misses at one key share a single
// computation instead of duplicating the work.
func TestSingleflight(t *testing.T) {
	c := New(0)
	release := make(chan struct{})
	var computes int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := getBytes(context.Background(), c, keyN(7), func() ([]byte, error) {
				computes++ // safe: only one goroutine may get here
				<-release
				return []byte("shared"), nil
			})
			if err != nil || string(v) != "shared" {
				t.Errorf("got %q, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
}

func TestEvictionFIFO(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		getBytes(context.Background(), c, keyN(i), func() ([]byte, error) { return []byte{byte(i)}, nil })
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// key 0 was evicted: a re-get recomputes
	recomputed := false
	getBytes(context.Background(), c, keyN(0), func() ([]byte, error) { recomputed = true; return nil, nil })
	if !recomputed {
		t.Fatal("oldest entry should have been evicted")
	}
	// key 2 survived
	getBytes(context.Background(), c, keyN(2), func() ([]byte, error) {
		t.Fatal("newest entry should still be resident")
		return nil, nil
	})
}

// TestEvictionOrderPinned pins the eviction order across both in-place
// removals: a forgotten entry leaves from the middle of the order, an
// in-flight head is skipped (so a later entry goes first), and every
// other entry still leaves oldest-first.
func TestEvictionOrderPinned(t *testing.T) {
	put := func(c *Cache, n int) {
		getBytes(context.Background(), c, keyN(n), func() ([]byte, error) { return []byte{byte(n)}, nil })
	}
	resident := func(c *Cache, want ...int) {
		t.Helper()
		for n := 0; n < 8; n++ {
			_, got := c.PeekBytes(keyN(n))
			exp := false
			for _, w := range want {
				exp = exp || w == n
			}
			if got != exp {
				t.Errorf("key %d resident = %v, want %v (want set %v)", n, got, exp, want)
			}
		}
	}
	// slowly computes key n; the returned func finishes it with err
	inflight := func(c *Cache, n int) func(error) {
		started, release := make(chan struct{}), make(chan error)
		done := make(chan struct{})
		go func() {
			defer close(done)
			getBytes(context.Background(), c, keyN(n), func() ([]byte, error) {
				close(started)
				err := <-release
				return []byte{byte(n)}, err
			})
		}()
		<-started
		return func(err error) { release <- err; <-done }
	}

	// a cancelled owner is forgotten from the middle of the order
	c := New(3)
	put(c, 0)
	finish := inflight(c, 1)
	put(c, 2)
	finish(context.Canceled)
	put(c, 3) // room left by the forgotten key: no eviction
	resident(c, 0, 2, 3)
	put(c, 4)
	resident(c, 2, 3, 4)
	put(c, 5)
	resident(c, 3, 4, 5)

	// an in-flight head is skipped; the next-oldest complete entry goes
	c = New(2)
	finish = inflight(c, 0)
	put(c, 1)
	put(c, 2)
	finish(nil)
	resident(c, 0, 2)
	put(c, 3)
	resident(c, 2, 3)
	if got := c.Stats().Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}

	// removal reuses the order's backing array (after head advances, the
	// insert's append regrows it once per few hundred evictions, which
	// rounds to zero per run)
	c = New(0)
	for n := 0; n < 511; n++ {
		c.order = append(c.order, keyN(n))
	}
	for _, i := range []int{0, 7} {
		k := keyN(i)
		if a := testing.AllocsPerRun(100, func() {
			c.removeOrder(i)
			c.order = append(c.order, k)
		}); a != 0 {
			t.Errorf("removeOrder(%d) + append: %v allocs per run, want 0", i, a)
		}
	}
}

func TestDiskWarmStartAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1 := New(0)
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	v, err := getBytes(context.Background(), c1, keyN(1), func() ([]byte, error) { return []byte("persisted"), nil })
	if err != nil || string(v) != "persisted" {
		t.Fatalf("store: %q, %v", v, err)
	}

	// a fresh instance on the same dir models a new process
	c2 := New(0)
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	v, err = getBytes(context.Background(), c2, keyN(1), func() ([]byte, error) {
		t.Fatal("warm start must not recompute")
		return nil, nil
	})
	if err != nil || string(v) != "persisted" {
		t.Fatalf("load: %q, %v", v, err)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Computes != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 computes", s)
	}
}

func TestCorruptEntriesRecomputed(t *testing.T) {
	payload := []byte(`{"version":1,"blocks":{"main:B0":1}}`)
	corruptions := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":         func([]byte) []byte { return []byte("not a cache entry at all") },
		"flipped payload": func(b []byte) []byte { x := bytes.Clone(b); x[len(x)-2] ^= 0xff; return x },
		"empty":           func([]byte) []byte { return nil },
		"stale version":   func(b []byte) []byte { return bytes.Replace(b, []byte("reprocache v"), []byte("reprocache v9"), 1) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := New(0)
			if err := c1.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := getBytes(context.Background(), c1, keyN(1), func() ([]byte, error) { return payload, nil }); err != nil {
				t.Fatal(err)
			}
			path := c1.diskPath(c1.Dir(), keyN(1))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := New(0)
			if err := c2.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			recomputed := false
			v, err := getBytes(context.Background(), c2, keyN(1), func() ([]byte, error) { recomputed = true; return payload, nil })
			if err != nil {
				t.Fatalf("corruption must never surface as an error: %v", err)
			}
			if !recomputed || !bytes.Equal(v, payload) {
				t.Fatalf("recomputed=%v v=%q", recomputed, v)
			}
			if s := c2.Stats(); s.Corrupt != 1 {
				t.Fatalf("stats = %+v, want Corrupt=1", s)
			}
			// the recomputed value was re-persisted and is valid again
			c3 := New(0)
			if err := c3.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := getBytes(context.Background(), c3, keyN(1), func() ([]byte, error) {
				t.Fatal("repaired entry should load from disk")
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// peekDir reads key's verified disk payload from the cache dir dir
// through c (a fresh instance, so the memory tier cannot answer).
func (c *Cache) peekDir(t *testing.T, dir string, key Key) ([]byte, bool) {
	t.Helper()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	return c.PeekBytes(key)
}

// TestUndecodableDiskEntryRecomputed pins the disk boundary's decode
// step: an entry with a valid checksum whose payload the codec rejects
// is counted corrupt, removed, and recomputed.
func TestUndecodableDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	var sc strictCodec
	c1 := New(0)
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	c1.diskStore(c1.Dir(), keyN(1), []byte("garbage"))
	path := c1.diskPath(c1.Dir(), keyN(1))

	c2 := New(0)
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	v, err := c2.GetCtx(context.Background(), keyN(1), sc.codec(), func() (any, error) {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("undecodable entry not removed before recompute: %v", err)
		}
		return "fresh", nil
	})
	if err != nil || v != "fresh" {
		t.Fatalf("get: %v, %v", v, err)
	}
	if s := c2.Stats(); s.Corrupt != 1 || s.DiskHits != 0 || s.DiskMisses != 1 || s.Computes != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt disk miss and 1 compute", s)
	}
	if data, ok := New(0).peekDir(t, dir, keyN(1)); !ok || string(data) != "v:fresh" {
		t.Fatalf("repaired entry = %q, %v", data, ok)
	}
}

func TestDisabledBypassesAllTiers(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	c.SetEnabled(false)
	computes := 0
	for i := 0; i < 2; i++ {
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 while disabled", computes)
	}
	files, _ := filepath.Glob(filepath.Join(c.Dir(), "*.cache"))
	if len(files) != 0 {
		t.Fatalf("disabled cache wrote %d files", len(files))
	}
	c.SetEnabled(true)
	getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	if computes != 3 {
		t.Fatalf("computes = %d, want 3 after re-enable", computes)
	}
}

func TestObjectTierIsMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	type big struct{ n int }
	v, err := c.GetCtx(context.Background(), keyN(3), nil, func() (any, error) { return &big{42}, nil })
	if err != nil || v.(*big).n != 42 {
		t.Fatalf("%v, %v", v, err)
	}
	files, _ := filepath.Glob(filepath.Join(c.Dir(), "*.cache"))
	if len(files) != 0 {
		t.Fatalf("object entries must not be persisted, found %d files", len(files))
	}
	v2, _ := c.GetCtx(context.Background(), keyN(3), nil, func() (any, error) {
		t.Fatal("must be memoized")
		return nil, nil
	})
	if v2 != v {
		t.Fatal("object identity must be stable across hits")
	}
}

func TestResetDropsMemoryKeepsDisk(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { return []byte("v"), nil })
	c.Reset()
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		t.Fatal("reset must not clear the persistent tier")
		return nil, nil
	})
	if err != nil || string(v) != "v" {
		t.Fatalf("%q, %v", v, err)
	}
	if s := c.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want a disk hit after reset", s)
	}
}

// TestConcurrentMixed drives many goroutines across overlapping keys
// with the disk tier on — byte entries, memory-only entries, and pushed
// payloads that peeks serve and lookups claim and decode; run under
// -race this is the cache's thread-safety gate.
func TestConcurrentMixed(t *testing.T) {
	dir := t.TempDir()
	c := New(16)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var sc strictCodec
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := i % 8
				want := fmt.Sprintf("v%d", k)
				v, err := getBytes(context.Background(), c, keyN(k), func() ([]byte, error) {
					return []byte(fmt.Sprintf("v%d", k)), nil
				})
				if err != nil || string(v) != want {
					t.Errorf("g%d i%d: %q, %v", g, i, v, err)
					return
				}
				if g%4 == 0 && i%25 == 24 {
					c.Reset()
				}
				if _, err := c.GetCtx(context.Background(), keyN(100+k), nil, func() (any, error) { return k, nil }); err != nil {
					t.Errorf("object: %v", err)
					return
				}
				c.PutBytes(keyN(200+k), []byte("v:"+want))
				if data, ok := c.PeekBytes(keyN(200 + k)); ok && string(data) != "v:"+want {
					t.Errorf("peek pushed: %q", data)
					return
				}
				pv, err := c.GetCtx(context.Background(), keyN(200+k), sc.codec(), func() (any, error) { return want, nil })
				if err != nil || pv != want {
					t.Errorf("pushed key: %v, %v", pv, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedDirTwoInstancesConcurrent simulates two specd replicas (two
// Cache instances) sharing one -cache-dir concurrently: no corruption,
// the temp-file+rename contract holds (every read sees a complete,
// checksummed entry or a miss — never a partial write), and both see
// warm hits for entries the other persisted.
func TestSharedDirTwoInstancesConcurrent(t *testing.T) {
	dir := t.TempDir()
	a, b := New(0), New(0)
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	const keys = 32
	const goroutines = 8
	value := func(n int) []byte {
		return bytes.Repeat([]byte{byte(n)}, 1024+n)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines*keys)
	for _, c := range []*Cache{a, b} {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				for n := 0; n < keys; n++ {
					got, err := getBytes(context.Background(), c, keyN(n), func() ([]byte, error) {
						return value(n), nil
					})
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, value(n)) {
						errs <- fmt.Errorf("key %d: wrong bytes (len %d)", n, len(got))
						return
					}
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// nothing was discarded as corrupt on either instance
	if sa, sb := a.Stats(), b.Stats(); sa.Corrupt != 0 || sb.Corrupt != 0 {
		t.Fatalf("corrupt entries seen: a=%d b=%d", sa.Corrupt, sb.Corrupt)
	}
	// a third, cold instance warm-starts purely from the shared dir
	c3 := New(0)
	if err := c3.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < keys; n++ {
		got, err := getBytes(context.Background(), c3, keyN(n), func() ([]byte, error) {
			return nil, errors.New("must not recompute: entry should be on disk")
		})
		if err != nil || !bytes.Equal(got, value(n)) {
			t.Fatalf("warm start key %d: %v", n, err)
		}
	}
	if s := c3.Stats(); s.DiskHits != keys || s.Computes != 0 {
		t.Fatalf("cold instance stats = %+v, want %d disk hits and 0 computes", s, keys)
	}
}

func TestPruneOldestFirst(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	// three 1KiB-payload entries with distinct mtimes, oldest first
	var paths []string
	for n := 0; n < 3; n++ {
		if _, err := getBytes(context.Background(), c, keyN(n), func() ([]byte, error) {
			return bytes.Repeat([]byte{byte(n)}, 1024), nil
		}); err != nil {
			t.Fatal(err)
		}
		p := c.diskPath(c.Dir(), keyN(n))
		mtime := time.Now().Add(time.Duration(n-3) * time.Hour)
		if err := os.Chtimes(p, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	// budget for exactly two entries: the oldest one must go
	budget := total - 1
	freed, err := Prune(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("Prune freed nothing")
	}
	if _, err := os.Stat(paths[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("oldest entry survived: %v", err)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("newer entry pruned: %v", err)
		}
	}
	// within budget: nothing further to do
	if freed, err := Prune(dir, budget); err != nil || freed != 0 {
		t.Fatalf("second prune freed %d (%v), want 0", freed, err)
	}
	// pruned entries recompute transparently on the next lookup
	c2 := New(0)
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := getBytes(context.Background(), c2, keyN(0), func() ([]byte, error) {
		return []byte("recomputed"), nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneRemovesStaleTmpFiles(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(c.Dir(), "tmp-stale")
	fresh := filepath.Join(c.Dir(), "tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Prune(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale tmp file survived Prune")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh tmp file (a concurrent write in progress) must survive Prune")
	}
}

// TestCtxWaiterCancelled proves singleflight waiters honor their
// context: a waiter blocked on another caller's slow computation
// returns ctx.Err() promptly instead of blocking until the owner
// finishes.
func TestCtxWaiterCancelled(t *testing.T) {
	c := New(0)
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			close(computing)
			<-release
			return []byte("slow"), nil
		})
	}()
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := getBytes(ctx, c, keyN(1), func() ([]byte, error) {
			return nil, errors.New("waiter must not compute")
		})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
	// the owner's value is memoized normally
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		return nil, errors.New("must be memoized")
	})
	if err != nil || string(v) != "slow" {
		t.Fatalf("after release: %q, %v", v, err)
	}
}

// TestCtxErrorNotMemoized proves an owner whose compute surfaces a
// context error does not poison the key: the entry is forgotten and the
// next caller recomputes.
func TestCtxErrorNotMemoized(t *testing.T) {
	c := New(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		// a nested ctx-aware computation bubbling up its caller's
		// cancellation
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || string(v) != "fresh" {
		t.Fatalf("recompute after ctx error: %q, %v", v, err)
	}
	// real errors stay memoized (the existing contract)
	boom := errors.New("boom")
	getBytes(context.Background(), c, keyN(2), func() ([]byte, error) { return nil, boom })
	_, err = getBytes(context.Background(), c, keyN(2), func() ([]byte, error) {
		return nil, errors.New("must not recompute")
	})
	if !errors.Is(err, boom) {
		t.Fatalf("memoized error = %v, want boom", err)
	}
}

// TestPanicDoesNotDeadlockWaiters proves a panicking compute releases
// its waiters (they retry and become owners) instead of leaving them
// blocked on a never-closed ready channel.
func TestPanicDoesNotDeadlockWaiters(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			close(started)
			// give the waiter time to block on ready
			time.Sleep(50 * time.Millisecond)
			panic("compute exploded")
		})
	}()
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(v) != "recovered" {
			t.Errorf("waiter after panic: %q, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked behind a panicking owner")
	}
}

// TestPruneConcurrentReaders prunes the disk tier continuously while
// readers hammer it. The tier's contract under this race: a reader
// either gets the cached value or transparently recomputes the same
// value — never a corrupted read — and with a budget generous enough
// to keep every entry, pruning loses nothing.
func TestPruneConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	const nkeys = 24
	value := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, 64)))) }

	seed := New(0)
	if err := seed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < nkeys; i++ {
		v, err := getBytes(context.Background(), seed, keyN(i), func() ([]byte, error) { return value(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(v))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Pruner A: generous budget — must never delete a live entry.
	// Pruner B: starvation budget — deletes freely; readers must still
	// always observe correct values (recompute on loss).
	for _, budget := range []int64{total * 4, total / 4} {
		budget := budget
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := Prune(dir, budget); err != nil {
					t.Errorf("prune: %v", err)
					return
				}
			}
		}()
	}

	// Readers: fresh Cache instances (cold memory tier) so every read
	// exercises the disk tier against the pruners.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New(0)
			if err := c.SetDir(dir); err != nil {
				t.Error(err)
				return
			}
			for iter := 0; iter < 50; iter++ {
				for i := 0; i < nkeys; i++ {
					i := i
					v, err := getBytes(context.Background(), c, keyN(i), func() ([]byte, error) { return value(i), nil })
					if err != nil {
						t.Errorf("get key %d: %v", i, err)
						return
					}
					if !bytes.Equal(v, value(i)) {
						t.Errorf("corrupted read for key %d: %q", i, v)
						return
					}
				}
				c.Reset() // force the disk tier again next round
			}
		}()
	}

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// No reader ever saw a corrupt entry: prune deletes whole files via
	// rename-installed paths, so partial reads must not occur.
	// (Corrupt counters belong to the readers' caches; assert via a
	// final full sweep with a generous pruner long gone.)
	final := New(0)
	if err := final.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nkeys; i++ {
		i := i
		v, err := getBytes(context.Background(), final, keyN(i), func() ([]byte, error) { return value(i), nil })
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("final read key %d: %q, %v", i, v, err)
		}
	}
	if c := final.Stats().Corrupt; c != 0 {
		t.Fatalf("final sweep found %d corrupt entries", c)
	}
}

// TestPruneGenerousBudgetLosesNothing is the quiescent half of the
// prune-vs-readers contract: with maxBytes above the tier's total size,
// a prune running concurrently with reads deletes no entry at all.
func TestPruneGenerousBudgetLosesNothing(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	const nkeys = 16
	for i := 0; i < nkeys; i++ {
		i := i
		if _, err := getBytes(context.Background(), c, keyN(i), func() ([]byte, error) { return []byte(fmt.Sprintf("v%d", i)), nil }); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := Prune(dir, 1<<30); err != nil {
				t.Errorf("prune: %v", err)
				return
			}
		}
	}()
	reader := New(0)
	if err := reader.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 30; iter++ {
		for i := 0; i < nkeys; i++ {
			v, err := getBytes(context.Background(), reader, keyN(i), func() ([]byte, error) {
				return nil, fmt.Errorf("entry %d lost under generous budget", i)
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("corrupted read: %q", v)
			}
		}
		reader.Reset()
	}
	close(stop)
	wg.Wait()
}

// TestDiskHitRefreshesMtime pins the approximate-LRU behavior diskLoad
// gives Prune: a read refreshes the entry's mtime, so recently-used
// entries are pruned last.
func TestDiskHitRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	c := New(0)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	hot, cold := keyN(1), keyN(2)
	for _, k := range []Key{hot, cold} {
		k := k
		if _, err := getBytes(context.Background(), c, k, func() ([]byte, error) { return []byte("xxxxxxxx"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Age both entries, then touch only the hot one via a disk read.
	old := time.Now().Add(-time.Hour)
	vdir := c.Dir()
	for _, k := range []Key{hot, cold} {
		if err := os.Chtimes(c.diskPath(vdir, k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	if _, err := getBytes(context.Background(), c, hot, func() ([]byte, error) { return nil, fmt.Errorf("lost") }); err != nil {
		t.Fatal(err)
	}
	// Prune to a budget that keeps exactly one entry: the cold one goes.
	info, err := os.Stat(c.diskPath(vdir, hot))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prune(filepath.Dir(vdir), info.Size()+2); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(c.diskPath(vdir, hot)); serr != nil {
		t.Fatal("recently-read entry was pruned before the stale one")
	}
	if _, serr := os.Stat(c.diskPath(vdir, cold)); serr == nil {
		t.Fatal("stale entry survived a budget sized for one entry")
	}
}
