// Package cache is the content-addressed cache behind the compilation
// pipeline's reuse. One lookup, GetCtx, serves every artifact — frontend
// IR masters, builds, serialized profiles, recorded traces — from an
// in-memory tier that holds each artifact once, as the value callers
// use, backed by an optional on-disk tier. A sweep's config variants
// share one profiling run, and a warm-started process skips profiling
// entirely.
//
// Keys are sha256 digests over length-prefixed byte parts (KeyOf), so a
// key commits to the full content that produced the value — source
// text, option string, training arguments — never to a name. Both
// tiers follow the same contract:
//
//   - a lookup either returns the memoized value or runs the caller's
//     compute function exactly once per key, even under concurrency
//     (concurrent misses of one key block on one computation);
//   - a value crosses the process boundary only through its entry's
//     Codec: encoded on the way to disk, decoded before use on the
//     way back; a truncated, garbled, stale or undecodable payload is
//     discarded and recomputed — corruption is never an error;
//   - hit/miss/compute/evict/corrupt counters are exported (Stats) so
//     tests and tools can assert reuse instead of trusting it.
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
	MemHits    uint64 // lookups served by the in-memory tier
	MemMisses  uint64 // lookups that missed the in-memory tier
	DiskHits   uint64 // memory misses served by the on-disk tier
	DiskMisses uint64 // on-disk lookups that found no (valid) entry
	Computes   uint64 // compute functions actually run
	Evictions  uint64 // in-memory entries dropped for capacity
	Corrupt    uint64 // disk entries discarded as corrupt, stale or undecodable
}

func (s Stats) String() string {
	return fmt.Sprintf("mem %d/%d hit/miss, disk %d/%d hit/miss, %d computes, %d evictions, %d corrupt",
		s.MemHits, s.MemMisses, s.DiskHits, s.DiskMisses, s.Computes, s.Evictions, s.Corrupt)
}

// Codec converts an entry's value to and from the bytes the disk tier
// carries. It runs only where bytes cross the process boundary; the
// memory tier always holds the decoded value. A nil *Codec marks a
// memory-only entry.
type Codec struct {
	Encode func(v any) []byte
	Decode func(data []byte) (any, error) // an error marks the payload corrupt
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

// Cache is a content-addressed cache with up to two tiers (memory,
// disk), safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	disabled bool
	dir      string // "" = memory only
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
// subdirectory), or disables it when dir is empty. Entries with a codec
// are persisted there and survive the process.
func (c *Cache) SetDir(dir string) error {
	vdir := ""
	if dir != "" {
		vdir = filepath.Join(dir, fmt.Sprintf("v%d", Version))
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
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

// SumObjects folds f over the value of every completed, non-error entry
// of the in-memory tier and returns the sum. Used to expose resident-size
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
// per process and, for an entry with a codec and the disk tier on, at
// most once per key per cache directory. Every caller shares the one
// value compute returned (or codec.Decode produced) and must treat it as
// immutable. A nil codec keeps the entry out of the disk tier. Errors
// are memoized in memory (the pipeline computations are deterministic)
// but never persisted.
//
// Cancellation: a caller waiting on another caller's in-flight
// computation returns ctx.Err() as soon as ctx is done. The owner always
// completes its compute — the result is cached for every other caller —
// but a context error it surfaces (a nested ctx-aware lookup, or a
// compute that honors its caller's ctx) is forgotten, not memoized, and
// waiters with a live context retry the lookup.
func (c *Cache) GetCtx(ctx context.Context, key Key, codec *Codec, compute func() (any, error)) (any, error) {
	if c.isDisabled() {
		c.bump(&c.stats.Computes)
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
				return e.val, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return c.fill(e, key, dir, codec, compute)
	}
}

// fill runs the owner's side of a GetCtx miss: (with a codec) the disk
// tier, then compute. A disk payload is decoded before it is used; one
// that fails is counted corrupt and recomputed. A computed value is
// encoded once, only if the disk tier is on, and written through to it.
// e.ready is closed on every exit; after a compute panic the entry is
// forgotten so waiters retry, and the panic propagates.
func (c *Cache) fill(e *entry, key Key, dir string, codec *Codec, compute func() (any, error)) (any, error) {
	completed := false
	defer func() {
		if !completed {
			e.err = errAbandoned
			c.forget(key, e)
		}
		close(e.ready)
	}()
	if codec == nil {
		dir = "" // a memory-only entry never leaves memory
	}
	if dir != "" {
		if v, ok := c.diskLoad(dir, key, codec.Decode); ok {
			e.val, completed = v, true
			return v, nil
		}
	}
	c.bump(&c.stats.Computes)
	e.val, e.err = compute()
	completed = true
	if isCtxErr(e.err) {
		c.forget(key, e)
	} else if e.err == nil && dir != "" {
		c.diskStore(dir, key, codec.Encode(e.val))
	}
	return e.val, e.err
}

// The on-disk entry format: one header line
//
//	reprocache v<Version> <64-hex sha256 of payload>\n
//
// followed by the codec-encoded payload. The checksum makes truncation
// and bit rot detectable; the version (in both the directory name and
// the header) makes staleness detectable; the codec's decoder catches a
// well-formed entry whose payload is not a valid encoding.

func (c *Cache) diskPath(dir string, key Key) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+".cache")
}

// diskLoad reads, verifies and decodes the entry for key. Any failure —
// missing file, malformed header, checksum mismatch, a payload decode
// rejects — is a miss; a present but invalid file is deleted and counted
// as corrupt. A hit refreshes the entry's mtime so Prune's oldest-first
// deletion order approximates LRU: entries that concurrent readers are
// actively using are the last to go, not the first (their write time
// says nothing about their use).
func (c *Cache) diskLoad(dir string, key Key, decode func([]byte) (any, error)) (any, bool) {
	path := c.diskPath(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.bump(&c.stats.DiskMisses)
		return nil, false
	}
	var v any
	payload, ok := verifyEntry(raw)
	if ok {
		v, err = decode(payload)
		ok = err == nil
	}
	if !ok {
		c.bump(&c.stats.DiskMisses)
		c.bump(&c.stats.Corrupt)
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
	c.bump(&c.stats.DiskHits)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: a failed touch only ages the entry
	return v, true
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
