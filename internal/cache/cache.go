// Package cache is the content-addressed cache behind the compilation
// pipeline's reuse. One lookup, GetCtx, serves every artifact — frontend
// IR masters, builds, alias/edge profiles, recorded traces — from an
// in-memory map that holds each artifact once, as the value callers
// use. A sweep's config variants share one profiling run, and a repeated
// request shares one build and one trace. The cache lives as long as the
// process; profiles cross processes only explicitly (aliasprof -o, then
// Config.ProfileJSON).
//
// Keys are sha256 digests over length-prefixed byte parts (KeyOf), so a
// key commits to the full content that produced the value — source
// text, option string, training arguments — never to a name. The
// contract:
//
//   - a lookup either returns the memoized value or runs the caller's
//     compute function exactly once per key, even under concurrency
//     (concurrent misses of one key block on one computation);
//   - hit/miss/compute/evict counters are exported (Stats) so tests and
//     tools can assert reuse instead of trusting it.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Key is a content-addressed cache key.
type Key [sha256.Size]byte

// KeyOf digests the parts into a Key. Each part is length-prefixed
// before hashing, so ("ab","c") and ("a","bc") produce distinct keys.
func KeyOf(parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// Stats are the cache's cumulative counters. Snapshot them before and
// after an operation and compare deltas; they are never reset.
type Stats struct {
	MemHits   uint64 // lookups served by the in-memory tier
	MemMisses uint64 // lookups that missed the in-memory tier
	Computes  uint64 // compute functions actually run
	Evictions uint64 // in-memory entries dropped for capacity
}

func (s Stats) String() string {
	return fmt.Sprintf("mem %d/%d hit/miss, %d computes, %d evictions",
		s.MemHits, s.MemMisses, s.Computes, s.Evictions)
}

// entry is one memoized result. ready is closed when the result fields
// are final; late arrivals at the same key wait on it (singleflight).
type entry struct {
	ready chan struct{}
	val   any // the value callers use
	err   error
}

func (e *entry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Cache is an in-memory content-addressed cache, safe for concurrent
// use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	disabled bool
	mem      map[Key]*entry
	order    []Key // insertion order, for FIFO eviction
	stats    Stats
}

// New returns a cache holding at most capacity entries
// (<= 0 means unbounded).
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, mem: map[Key]*entry{}}
}

// SetEnabled turns memoization on or off. While disabled every lookup
// runs its compute function and nothing is stored or read. The oracle
// mode for "byte-identical with the cache off" tests.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	c.disabled = !on
	c.mu.Unlock()
}

// Reset drops every entry, so the next lookup of any key recomputes.
// Counters are cumulative and unaffected.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.mem = map[Key]*entry{}
	c.order = nil
	c.mu.Unlock()
}

// SumObjects folds f over the value of every completed, non-error entry
// and returns the sum. Used to expose resident-size
// gauges (e.g. trace bytes) without the cache knowing any value's type.
func (c *Cache) SumObjects(f func(v any) int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, e := range c.mem {
		if e.done() && e.err == nil && e.val != nil {
			total += f(e.val)
		}
	}
	return total
}

// Contains reports whether key has an entry, complete or in flight,
// without counting a lookup: a caller deciding whether work ahead of a
// lookup would be wasted peeks with it.
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.mem[key]
	return ok && !c.disabled
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// bump increments one counter of c.stats.
func (c *Cache) bump(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// lookupOrClaim returns the entry for key and whether the caller owns
// its computation. Non-owners must wait on entry.ready.
func (c *Cache) lookupOrClaim(key Key) (e *entry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[key]; ok {
		c.stats.MemHits++
		return e, false
	}
	c.stats.MemMisses++
	c.evictLocked()
	e = &entry{ready: make(chan struct{})}
	c.mem[key] = e
	c.order = append(c.order, key)
	return e, true
}

// evictLocked makes room for one insertion, FIFO over completed
// entries; in-flight entries are never evicted (their waiters hold the
// pointer, and dropping them would duplicate the computation).
func (c *Cache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.mem) >= c.capacity && len(c.order) > 0 {
		evicted := false
		for i, k := range c.order {
			e, ok := c.mem[k]
			if ok && !e.done() {
				continue
			}
			c.removeOrder(i)
			if ok {
				delete(c.mem, k)
				c.stats.Evictions++
				evicted = true
			}
			break
		}
		if !evicted {
			return // everything resident is in flight
		}
	}
}

func (c *Cache) isDisabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disabled
}

// errAbandoned marks an entry whose owner exited without a result (a
// compute panic). It wraps context.Canceled so waiters treat it like an
// owner cancellation: retry the lookup instead of surfacing it.
var errAbandoned = fmt.Errorf("cache: computation abandoned: %w", context.Canceled)

// isCtxErr reports whether err is a context cancellation or deadline —
// the one compute error never memoized: it describes the caller that
// owned the computation, not the computation, and would poison the key.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// forget removes an abandoned in-flight entry so a later lookup
// recomputes instead of observing another caller's context error.
func (c *Cache) forget(key Key, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.mem[key]; ok && cur == e {
		delete(c.mem, key)
		for i, k := range c.order {
			if k == key {
				c.removeOrder(i)
				break
			}
		}
	}
}

// removeOrder deletes c.order[i] in place, keeping the others in
// insertion order. The FIFO case (i == 0, every eviction of a cache
// whose oldest entry is complete) just advances the slice head; neither
// case allocates. Callers hold c.mu.
func (c *Cache) removeOrder(i int) {
	if i == 0 {
		c.order = c.order[1:]
		return
	}
	c.order = append(c.order[:i], c.order[i+1:]...)
}

// GetCtx returns the value for key, computing it at most once per key
// while the entry is resident. Every caller shares the one value compute
// returned and must treat it as immutable. Errors are memoized (the
// pipeline computations are deterministic).
//
// Cancellation: a caller waiting on another caller's in-flight
// computation returns ctx.Err() as soon as ctx is done. The owner always
// completes its compute — the result is cached for every other caller —
// but a context error it surfaces (a nested ctx-aware lookup, or a
// compute that honors its caller's ctx) is forgotten, not memoized, and
// waiters with a live context retry the lookup.
func (c *Cache) GetCtx(ctx context.Context, key Key, compute func() (any, error)) (any, error) {
	if c.isDisabled() {
		c.bump(&c.stats.Computes)
		return compute()
	}
	for {
		e, owner := c.lookupOrClaim(key)
		if !owner {
			select {
			case <-e.ready:
				if isCtxErr(e.err) {
					// the owner was cancelled mid-compute; its error is
					// not ours — retry unless we are cancelled too
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue
				}
				return e.val, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return c.fill(e, key, compute)
	}
}

// fill runs the owner's side of a GetCtx miss. e.ready is closed on
// every exit; after a compute panic the entry is forgotten so waiters
// retry, and the panic propagates.
func (c *Cache) fill(e *entry, key Key, compute func() (any, error)) (any, error) {
	completed := false
	defer func() {
		if !completed {
			e.err = errAbandoned
			c.forget(key, e)
		}
		close(e.ready)
	}()
	c.bump(&c.stats.Computes)
	e.val, e.err = compute()
	completed = true
	if isCtxErr(e.err) {
		c.forget(key, e)
	}
	return e.val, e.err
}
