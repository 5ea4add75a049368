// Package cache is the two-tier content-addressed cache behind the
// compilation pipeline's reuse: an in-memory memoization tier (frontend
// IR masters, serialized profiles) and an optional persistent on-disk
// tier (serialized profiles), so a sweep's config variants share one
// profiling interpreter run and a warm-started process skips profiling
// entirely.
//
// Keys are sha256 digests over length-prefixed byte parts (KeyOf), so a
// key commits to the full content that produced the value — source
// text, option string, training arguments — never to a name. Both tiers
// follow the same contract:
//
//   - a lookup either returns the memoized value or runs the caller's
//     compute function exactly once per key, even under concurrency
//     (misses are single-flighted: concurrent callers of the same key
//     block on one computation instead of duplicating it);
//   - on-disk entries live under a versioned subdirectory and carry a
//     checksum header; a truncated, garbled, or stale entry is
//     discarded and recomputed — corruption is never an error;
//   - hit/miss/compute/evict counters are exported (Stats) so tests
//     and tools can assert reuse instead of trusting it.
package cache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Version stamps the on-disk layout. Entries are stored under a
// "v<Version>" subdirectory of the configured cache dir, so a layout or
// semantics change invalidates every old entry by construction instead
// of by deletion.
const Version = 1

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
	MemHits      uint64 // lookups served by the in-memory tier
	MemMisses    uint64 // lookups that missed the in-memory tier
	DiskHits     uint64 // memory misses served by the on-disk tier
	DiskMisses   uint64 // on-disk lookups that found no (valid) entry
	RemoteHits   uint64 // disk misses served by the remote (peer) tier
	RemoteMisses uint64 // remote lookups that found no peer copy
	RemotePuts   uint64 // computed entries pushed to the remote tier
	Computes     uint64 // compute functions actually run
	Evictions    uint64 // in-memory entries dropped for capacity
	Corrupt      uint64 // on-disk entries discarded as corrupt/stale
}

// entry is one memoized result. ready is closed when the result fields
// are final; late arrivals at the same key wait on it (singleflight).
type entry struct {
	ready chan struct{}
	data  []byte
	obj   any
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

// Cache is a content-addressed cache with up to three tiers (memory,
// disk, remote peers), safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	disabled bool
	dir      string // "" = memory only
	remote   Remote // nil = no peer tier
	mem      map[Key]*entry
	order    []Key // insertion order, for FIFO eviction
	stats    Stats
}

// New returns a memory-only cache holding at most capacity entries
// (<= 0 means unbounded).
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, mem: map[Key]*entry{}}
}

// SetDir enables the on-disk tier under dir (creating its versioned
// subdirectory), or disables it when dir is empty. Byte entries are
// persisted there and survive the process.
func (c *Cache) SetDir(dir string) error {
	if dir == "" {
		c.mu.Lock()
		c.dir = ""
		c.mu.Unlock()
		return nil
	}
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", Version))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.mu.Lock()
	c.dir = vdir
	c.mu.Unlock()
	return nil
}

// Dir reports the active versioned on-disk directory ("" when the disk
// tier is off).
func (c *Cache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// SetEnabled turns memoization on or off. While disabled every lookup
// runs its compute function; nothing is stored or read, in memory or on
// disk. The oracle mode for "byte-identical with the cache off" tests.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	c.disabled = !on
	c.mu.Unlock()
}

// Reset drops the whole in-memory tier (the on-disk tier, being
// persistent by design, stays). Counters are cumulative and unaffected.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.mem = map[Key]*entry{}
	c.order = nil
	c.mu.Unlock()
}

// SumObjects folds f over every completed, non-error object entry of
// the in-memory tier and returns the sum. Used to expose resident-size
// gauges (e.g. decoded trace bytes) without the cache knowing any
// value's type.
func (c *Cache) SumObjects(f func(v any) int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, e := range c.mem {
		if e.done() && e.err == nil && e.obj != nil {
			total += f(e.obj)
		}
	}
	return total
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// lookupOrClaim returns the entry for key and whether the caller owns
// its computation. Non-owners must wait on entry.ready.
func (c *Cache) lookupOrClaim(key Key) (e *entry, owner bool, dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[key]; ok {
		c.stats.MemHits++
		return e, false, c.dir
	}
	c.stats.MemMisses++
	c.evictLocked()
	e = &entry{ready: make(chan struct{})}
	c.mem[key] = e
	c.order = append(c.order, key)
	return e, true, c.dir
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

func (c *Cache) countCompute() {
	c.mu.Lock()
	c.stats.Computes++
	c.mu.Unlock()
}

// errAbandoned marks an entry whose owner exited without a result (a
// compute panic). It wraps context.Canceled so waiters treat it like an
// owner cancellation: retry the lookup instead of surfacing it.
var errAbandoned = fmt.Errorf("cache: computation abandoned: %w", context.Canceled)

// isCtxErr reports whether err is a context cancellation or deadline —
// the one class of compute error that must never be memoized: it
// describes the caller that happened to own the computation, not the
// computation itself, and caching it would poison the key for every
// future caller with a live context.
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

// GetBytesCtx returns the byte value for key, computing it at most once
// per key per process and, when the disk tier is on, at most once per
// key per cache directory. Errors are memoized in memory (the pipeline
// computations are deterministic) but never persisted. Callers must not
// mutate the returned slice.
//
// Cancellation: a caller waiting on
// another caller's in-flight computation (the singleflight path)
// returns ctx.Err() as soon as ctx is done instead of blocking until
// the owner finishes. The owner itself always completes its compute —
// the result is cached for every other caller, so abandoning it would
// only duplicate work — but if the compute surfaces a context error
// (a nested ctx-aware lookup, or a compute closure that honors its
// caller's ctx), that error is forgotten, not memoized, and waiters
// with a live context retry the lookup.
func (c *Cache) GetBytesCtx(ctx context.Context, key Key, compute func() ([]byte, error)) ([]byte, error) {
	if c.isDisabled() {
		c.countCompute()
		return compute()
	}
	for {
		e, owner, dir := c.lookupOrClaim(key)
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
				return e.data, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return c.fillBytes(ctx, e, key, dir, compute)
	}
}

// fillBytes runs the owner's side of a GetBytesCtx miss: disk tier,
// then the remote (peer) tier, then the compute function. e.ready is
// closed on every exit, including a compute panic (the entry is then
// forgotten so waiters retry rather than observe a half-filled entry,
// and the panic propagates to the owner). A remote hit is written
// through to the disk tier; a computed value is written through to both
// (the push to peers is what makes the entry computed once fleet-wide).
func (c *Cache) fillBytes(ctx context.Context, e *entry, key Key, dir string, compute func() ([]byte, error)) ([]byte, error) {
	completed := false
	defer func() {
		if !completed {
			e.err = errAbandoned
			c.forget(key, e)
		}
		close(e.ready)
	}()
	if dir != "" {
		if data, ok := c.diskLoad(dir, key); ok {
			e.data = data
			completed = true
			return data, nil
		}
	}
	if remote := c.getRemote(); remote != nil {
		if data, ok := remote.Get(ctx, key); ok {
			c.mu.Lock()
			c.stats.RemoteHits++
			c.mu.Unlock()
			e.data = data
			completed = true
			if dir != "" {
				c.diskStore(dir, key, data)
			}
			return data, nil
		}
		c.mu.Lock()
		c.stats.RemoteMisses++
		c.mu.Unlock()
	}
	c.countCompute()
	e.data, e.err = compute()
	completed = true
	if isCtxErr(e.err) {
		c.forget(key, e)
	} else if e.err == nil {
		if dir != "" {
			c.diskStore(dir, key, e.data)
		}
		if remote := c.getRemote(); remote != nil {
			remote.Put(ctx, key, e.data)
			c.mu.Lock()
			c.stats.RemotePuts++
			c.mu.Unlock()
		}
	}
	return e.data, e.err
}

// PeekBytes is the read side of serving the remote tier to peers: it
// returns the completed byte entry for key from the memory or disk tier
// without claiming the key, running any compute, or consulting this
// cache's own remote tier (so two peers looking each other up can never
// recurse). In-flight computations are not waited for — a peek races a
// compute, it never joins one.
func (c *Cache) PeekBytes(key Key) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.mem[key]
	dir := c.dir
	c.mu.Unlock()
	if ok && e.done() && e.err == nil && e.data != nil {
		return e.data, true
	}
	if dir != "" {
		if data, ok := c.diskLoad(dir, key); ok {
			return data, true
		}
	}
	return nil, false
}

// PutBytes is the write side of serving the remote tier to peers: it
// installs data as the completed byte entry for key in the memory tier
// (respecting capacity) and writes it through to the disk tier. An
// existing entry — completed or in flight — wins: the cache's values
// are content-addressed and deterministic, so the first copy is as good
// as any, and displacing an in-flight entry would strand its waiters.
func (c *Cache) PutBytes(key Key, data []byte) {
	c.mu.Lock()
	if c.disabled {
		c.mu.Unlock()
		return
	}
	dir := c.dir
	if _, ok := c.mem[key]; !ok {
		c.evictLocked()
		e := &entry{ready: make(chan struct{}), data: data}
		close(e.ready)
		c.mem[key] = e
		c.order = append(c.order, key)
	}
	c.mu.Unlock()
	if dir != "" {
		c.diskStore(dir, key, data)
	}
}

// GetObjectCtx is the memory-only variant of GetBytesCtx for values that
// are not serialized (frontend IR masters). The returned object is
// shared — callers must treat it as immutable (clone before mutating).
// Cancellation follows the same contract as GetBytesCtx: waiters honor
// ctx, owners complete, context errors are never memoized.
func (c *Cache) GetObjectCtx(ctx context.Context, key Key, compute func() (any, error)) (any, error) {
	if c.isDisabled() {
		c.countCompute()
		return compute()
	}
	for {
		e, owner, _ := c.lookupOrClaim(key)
		if !owner {
			select {
			case <-e.ready:
				if isCtxErr(e.err) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue
				}
				return e.obj, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return c.fillObject(e, key, compute)
	}
}

// fillObject is fillBytes for the memory-only object tier.
func (c *Cache) fillObject(e *entry, key Key, compute func() (any, error)) (any, error) {
	completed := false
	defer func() {
		if !completed {
			e.err = errAbandoned
			c.forget(key, e)
		}
		close(e.ready)
	}()
	c.countCompute()
	e.obj, e.err = compute()
	completed = true
	if isCtxErr(e.err) {
		c.forget(key, e)
	}
	return e.obj, e.err
}

// The on-disk entry format: one header line
//
//	reprocache v<Version> <64-hex sha256 of payload>\n
//
// followed by the raw payload. The checksum makes truncation and bit
// rot detectable; the version (in both the directory name and the
// header) makes staleness detectable.

func (c *Cache) diskPath(dir string, key Key) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+".cache")
}

// diskLoad reads and verifies the entry for key. Any failure — missing
// file, malformed header, checksum mismatch — is a miss; a present but
// invalid file is deleted and counted as corrupt. A hit refreshes the
// entry's mtime so Prune's oldest-first deletion order approximates
// LRU: entries that concurrent readers are actively using are the last
// to go, not the first (their write time says nothing about their use).
func (c *Cache) diskLoad(dir string, key Key) ([]byte, bool) {
	path := c.diskPath(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.mu.Lock()
		c.stats.DiskMisses++
		c.mu.Unlock()
		return nil, false
	}
	payload, ok := verifyEntry(raw)
	c.mu.Lock()
	if ok {
		c.stats.DiskHits++
	} else {
		c.stats.DiskMisses++
		c.stats.Corrupt++
	}
	c.mu.Unlock()
	if !ok {
		// Remove the corrupt file — but only if it still is the file we
		// read. A concurrent writer may have renamed a fresh, valid
		// entry over the path between our read and this removal, and
		// deleting that would lose a good entry (the historical race
		// this guards: truncated-entry cleanup vs store). A size match
		// can't distinguish every overwrite, but a valid entry and the
		// corrupt bytes sharing a length is vanishingly unlikely, and
		// the worst case of a wrong skip is one corrupt file lingering
		// until the next lookup.
		if info, serr := os.Stat(path); serr == nil && info.Size() == int64(len(raw)) {
			os.Remove(path)
		}
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: a failed touch only ages the entry
	return payload, true
}

func verifyEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	header, payload := string(raw[:nl]), raw[nl+1:]
	want := fmt.Sprintf("reprocache v%d %x", Version, sha256.Sum256(payload))
	if header != want {
		return nil, false
	}
	return payload, true
}

// pruneTmpAge is how old a tmp-* file must be before Prune treats it as
// a leftover from a crashed writer rather than a concurrent store in
// progress.
const pruneTmpAge = 10 * time.Minute

// Prune bounds the on-disk tier under dir (the user-facing cache
// directory, spanning every versioned subdirectory) to at most maxBytes
// of entry payloads, deleting oldest-mtime-first — the disk tier
// otherwise grows without limit. Stale tmp files from crashed writers
// are removed regardless of the budget once they are clearly abandoned.
// Deletion is safe against concurrent readers and writers by the tier's
// own contract: a reader that loses the race sees a miss and
// recomputes; writers go through temp-file + rename and never observe a
// partial entry. maxBytes <= 0 keeps every entry (only stale tmp files
// go). Returns the number of bytes freed.
func Prune(dir string, maxBytes int64) (int64, error) {
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []file
	var total, freed int64
	now := time.Now()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// a file deleted by a concurrent pruner is not an error
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		name := d.Name()
		switch {
		case len(name) > 4 && filepath.Ext(name) == ".cache":
			entries = append(entries, file{path, info.Size(), info.ModTime()})
			total += info.Size()
		case len(name) > 4 && name[:4] == "tmp-":
			if now.Sub(info.ModTime()) > pruneTmpAge {
				if os.Remove(path) == nil {
					freed += info.Size()
				}
			}
		}
		return nil
	})
	if err != nil {
		return freed, fmt.Errorf("cache: prune: %w", err)
	}
	if maxBytes <= 0 || total <= maxBytes {
		return freed, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, f := range entries {
		if total <= maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			freed += f.size
		}
	}
	return freed, nil
}

// diskStore persists an entry, best-effort: a full disk or unwritable
// directory degrades to memory-only caching, never to an error. The
// write goes through a temp file + rename so a concurrent process (or a
// crash) can never observe a half-written entry.
func (c *Cache) diskStore(dir string, key Key, payload []byte) {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	header := fmt.Sprintf("reprocache v%d %x\n", Version, sha256.Sum256(payload))
	_, werr := tmp.WriteString(header)
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr == nil && cerr == nil && os.Rename(name, c.diskPath(dir, key)) == nil {
		return
	}
	os.Remove(name)
}
