package machine

import "math/bits"

// The Advanced Load Address Table, shared by the functional engine
// (exec.go) and the timing engine's per-capacity event walk (alatWalk
// in replay.go). Itanium's ALAT is fully associative; this
// implementation indexes the slot array two ways — by
// (activation, register) for insert/check and by address for store
// invalidation — so every operation is O(1) in the table size. The old
// linear scans made alatInvalidate, which runs on every dynamic store,
// O(ALATSize) on the hottest path of the simulator. Both indexes are
// open-addressing hash tables over slices (wordIndex), not Go maps:
// every Record and every event walk runs these operations once per
// event, and the slice tables probe without the map runtime's calls.
//
// Eviction order is explicit and part of the machine model's contract:
// it decides which entry a later insert evicts, and so which checks
// hit, and the test-only oracle (internal/machine/oracle) reimplements
// it from this description:
//
//   - an advanced load to a register that already owns an entry
//     refreshes that entry in place (the slot does not move);
//   - otherwise the entry goes into the most recently freed slot
//     (LIFO over invalidated slots) or, with none freed, into the
//     lowest never-used slot (slots fill 0, 1, 2, …);
//   - when no slot is free, the victim cursor evicts slots in strict
//     round-robin slot order (0, 1, …, size-1, 0, …), advancing only
//     when it evicts;
//   - a store frees every entry at its address in the order of that
//     address's slot list, pushing each onto the free stack in turn.
//     The list grows by appending the slot an entry takes (an insert,
//     or a refresh to this address) and shrinks by moving its last
//     element into the removed one's place (an eviction, or a refresh
//     away from this address).
//
// Both engines run this exact code over the same event stream, which is
// what makes "replayed counters are byte-identical" a structural
// guarantee rather than a coincidence (see TestALATEvictionOrder).

// alatEntry is one ALAT slot.
type alatEntry struct {
	valid   bool
	frameID int64
	reg     int
	addr    int
}

// alatKey identifies an entry by owning activation and register: ALAT
// entries are frame-tagged so a callee's ld.a cannot satisfy the
// caller's ld.c on the same register number. The pair is packed into
// one word so the key index hashes a single uint64; register numbers
// are per-function indices (far below 2^16) and activation ids are
// bounded by MaxSteps (far below 2^47), so the packing cannot collide.
func alatKey(frameID int64, reg int) uint64 {
	return uint64(frameID)<<16 | uint64(reg)
}

// alat is the table. Its storage grows with use rather than with the
// configured capacity: slots holds only the slots ever taken, and the
// indexes only the live entries, so a table of 2^40 entries costs what
// its live entries cost. The order in which slots are taken is exactly
// the documented one — invalidated slots LIFO first, then never-used
// slots in increasing order, then round-robin eviction once all size
// slots are in use.
type alat struct {
	size   int              // capacity in entries
	slots  []alatEntry      // the slots taken so far, at most size
	byKey  wordIndex[int]   // (frameID, reg) -> slot of its valid entry
	byAddr wordIndex[[]int] // address -> slots with valid entries for it
	spare  [][]int          // emptied address lists, reused by new addresses
	free   []int            // LIFO stack of invalidated slots
	victim int              // round-robin eviction cursor
	// evictions counts capacity evictions (Counters.ALATEvictions).
	evictions int64
}

func newALAT(size int) *alat { return &alat{size: size} }

// unindexAddr removes slot i from addr's slot list.
func (a *alat) unindexAddr(i, addr int) {
	list := a.byAddr.find(uint64(addr))
	l := *list
	for j, s := range l {
		if s == i {
			l[j] = l[len(l)-1]
			l = l[:len(l)-1]
			break
		}
	}
	*list = l
	if len(l) == 0 {
		a.byAddr.remove(uint64(addr))
		a.spare = append(a.spare, l)
	}
}

// indexAddr adds slot i to addr's slot list.
func (a *alat) indexAddr(i, addr int) {
	list := a.byAddr.put(uint64(addr))
	if *list == nil && len(a.spare) > 0 {
		*list = a.spare[len(a.spare)-1]
		a.spare = a.spare[:len(a.spare)-1]
	}
	*list = append(*list, i)
}

// insert allocates (or refreshes) the entry for a register.
func (a *alat) insert(frameID int64, reg, addr int) {
	k := alatKey(frameID, reg)
	if p := a.byKey.find(k); p != nil {
		i := *p
		e := &a.slots[i]
		if e.addr != addr {
			a.unindexAddr(i, e.addr)
			e.addr = addr
			a.indexAddr(i, addr)
		}
		return
	}
	var i int
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
	} else if len(a.slots) < a.size {
		i = len(a.slots)
		a.slots = append(a.slots, alatEntry{})
	} else {
		i = a.victim
		a.victim++
		if a.victim == a.size {
			a.victim = 0
		}
		e := &a.slots[i]
		a.byKey.remove(alatKey(e.frameID, e.reg))
		a.unindexAddr(i, e.addr)
		a.evictions++
	}
	a.slots[i] = alatEntry{valid: true, frameID: frameID, reg: reg, addr: addr}
	*a.byKey.put(k) = i
	a.indexAddr(i, addr)
}

// check reports whether the register's entry survives with the same
// address (a successful ld.c).
func (a *alat) check(frameID int64, reg, addr int) bool {
	p := a.byKey.find(alatKey(frameID, reg))
	return p != nil && a.slots[*p].addr == addr
}

// invalidate drops every entry at addr (a conflicting store).
func (a *alat) invalidate(addr int) {
	list, ok := a.byAddr.remove(uint64(addr))
	if !ok {
		return
	}
	for _, i := range list {
		e := &a.slots[i]
		e.valid = false
		a.byKey.remove(alatKey(e.frameID, e.reg))
		a.free = append(a.free, i)
	}
	a.spare = append(a.spare, list[:0])
}

// wordIndex is an open-addressing hash index from a word to a V: linear
// probing over a power-of-two slice kept at most half full, with
// backward-shift deletion, so a probe run never holds a tombstone. It
// grows with its live keys only. A pointer find or put returns is valid
// until the next put or remove.
type wordIndex[V any] struct {
	ents  []wordEntry[V]
	n     int  // live keys
	shift uint // 64 - log2(len(ents)): a hash's top bits pick the home
}

type wordEntry[V any] struct {
	key  uint64
	used bool
	val  V
}

// home is key's first probe position: Fibonacci hashing, the top bits
// of the key times 2^64/φ.
func (x *wordIndex[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns key's value, or nil when key is absent.
func (x *wordIndex[V]) find(key uint64) *V {
	if x.n == 0 {
		return nil
	}
	mask := len(x.ents) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		e := &x.ents[i]
		if !e.used {
			return nil
		}
		if e.key == key {
			return &e.val
		}
	}
}

// put returns key's value, adding a zero one when key is absent.
func (x *wordIndex[V]) put(key uint64) *V {
	if 2*(x.n+1) > len(x.ents) {
		x.grow()
	}
	mask := len(x.ents) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		e := &x.ents[i]
		if !e.used {
			e.key, e.used = key, true
			x.n++
			return &e.val
		}
		if e.key == key {
			return &e.val
		}
	}
}

// remove deletes key and returns its value; ok is false when key was
// absent. Each later entry of the probe run that may move back into the
// hole does, so every remaining key stays reachable from its home.
func (x *wordIndex[V]) remove(key uint64) (val V, ok bool) {
	if x.n == 0 {
		return val, false
	}
	mask := len(x.ents) - 1
	i := x.home(key)
	for x.ents[i].used && x.ents[i].key != key {
		i = (i + 1) & mask
	}
	if !x.ents[i].used {
		return val, false
	}
	val = x.ents[i].val
	x.n--
	for j := (i + 1) & mask; x.ents[j].used; j = (j + 1) & mask {
		// the entry at j may fill the hole at i unless its home lies
		// cyclically after i, in (i, j]
		if (j-x.home(x.ents[j].key))&mask >= (j-i)&mask {
			x.ents[i] = x.ents[j]
			i = j
		}
	}
	x.ents[i] = wordEntry[V]{}
	return val, true
}

// grow doubles the slice (to 8 entries from empty) and re-probes every
// live key.
func (x *wordIndex[V]) grow() {
	old := x.ents
	n := max(8, 2*len(old))
	x.ents = make([]wordEntry[V], n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, e := range old {
		if !e.used {
			continue
		}
		i := x.home(e.key)
		for x.ents[i].used {
			i = (i + 1) & mask
		}
		x.ents[i] = e
	}
}
