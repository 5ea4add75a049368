package cache

// The remote tier: a peer lookup consulted between the on-disk tier and
// the compute function, so a fleet of processes shares one
// content-addressed store — a profile or trace computed on any node is
// computed exactly once fleet-wide. The tier is best-effort by the same
// contract as the disk tier: an unreachable peer is a miss, never an
// error. A key hashes the inputs, not the payload, so nothing here can
// verify a response; the cache decodes it with the entry's codec and
// discards one that fails as corrupt.
//
// Peers are ranked per key by rendezvous (highest-random-weight)
// hashing, so every node agrees on which peer owns a key without any
// coordination: lookups try peers in rank order and stop at the first
// hit; stores push to the top-ranked peer. Adding or removing a peer
// moves only the keys it owns — the fleet's sharding and the cache's
// placement use the same ranking (see HRWRank), which is what makes a
// worker warm for exactly the programs the coordinator routes to it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// Remote is the peer-lookup tier consulted by GetCtx between the disk
// tier and the compute function. Both methods are best-effort:
// Get reports a miss for any failure, Put may silently drop. The cache
// never calls them while holding its lock.
type Remote interface {
	// Get returns the payload for key, or ok=false on any miss or error.
	Get(ctx context.Context, key Key) (data []byte, ok bool)
	// Put offers the payload to the remote store, best-effort.
	Put(ctx context.Context, key Key, data []byte)
}

// SetRemote installs (or, with nil, removes) the remote tier.
func (c *Cache) SetRemote(r Remote) {
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
}

func (c *Cache) getRemote() Remote {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// ParseKey parses the 64-hex-digit form of a Key (the wire format of
// the /cache/{key} endpoints).
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*len(k) {
		return k, fmt.Errorf("cache: key must be %d hex digits, got %d", 2*len(k), len(s))
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return k, fmt.Errorf("cache: bad key: %w", err)
	}
	return k, nil
}

// String renders the key in its 64-hex wire form.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// HRWRank orders peer names by rendezvous (highest-random-weight)
// hashing for a key: every caller computes the same ranking from the
// same peer set with no shared state, ties broken by name so the order
// is total. The fleet coordinator and the remote cache tier share this
// function, which is exactly why a sweep's work lands on the node that
// is warm for it.
func HRWRank(key Key, names []string) []string {
	type scored struct {
		name  string
		score uint64
	}
	ranked := make([]scored, len(names))
	for i, n := range names {
		h := sha256.New()
		h.Write(key[:])
		io.WriteString(h, n)
		sum := h.Sum(nil)
		ranked[i] = scored{n, binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.name
	}
	return out
}

// PeerRemote is the HTTP Remote implementation: a set of specd peers
// serving GET/PUT /cache/{key}. Lookups try the key's rendezvous-ranked
// peers in order and stop at the first hit; stores push one copy to the
// top-ranked peer. Every request is bounded by Timeout on top of the
// caller's ctx so a hung peer degrades to a miss instead of stalling the
// compute path.
type PeerRemote struct {
	peers   []string // base URLs, e.g. "http://10.0.0.2:8080"
	client  *http.Client
	timeout time.Duration
}

// DefaultPeerTimeout bounds each peer cache request when NewPeerRemote
// is given no explicit timeout.
const DefaultPeerTimeout = 5 * time.Second

// NewPeerRemote builds a PeerRemote over the peer base URLs. A nil
// client uses http.DefaultClient; timeout <= 0 uses DefaultPeerTimeout.
func NewPeerRemote(peers []string, client *http.Client, timeout time.Duration) *PeerRemote {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	ps := make([]string, len(peers))
	copy(ps, peers)
	return &PeerRemote{peers: ps, client: client, timeout: timeout}
}

// maxRemoteEntry bounds what a peer response (or an uploaded entry) may
// carry — far above any serialized profile or trace, but finite, so a
// misbehaving peer cannot balloon memory.
const maxRemoteEntry = 64 << 20

func (r *PeerRemote) url(peer string, key Key) string {
	return peer + "/cache/" + key.String()
}

// Get tries the key's ranked peers in order and returns the first hit,
// undecoded: the cache's codec is the check on what a peer sent.
func (r *PeerRemote) Get(ctx context.Context, key Key) ([]byte, bool) {
	for _, peer := range HRWRank(key, r.peers) {
		if data, ok := r.getOne(ctx, peer, key); ok {
			return data, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
	}
	return nil, false
}

func (r *PeerRemote) getOne(ctx context.Context, peer string, key Key) ([]byte, bool) {
	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, r.url(peer, key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntry+1))
	if err != nil || len(data) > maxRemoteEntry {
		return nil, false
	}
	return data, true
}

// Put pushes one copy of the payload to the key's top-ranked peer,
// best-effort: the entry is re-derivable everywhere, so a failed push
// costs a future recompute, never correctness.
func (r *PeerRemote) Put(ctx context.Context, key Key, data []byte) {
	ranked := HRWRank(key, r.peers)
	if len(ranked) == 0 {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPut, r.url(ranked[0], key), bytes.NewReader(data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}
