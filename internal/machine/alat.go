package machine

// The Advanced Load Address Table, shared by the functional engine
// (exec.go) and the timing engine's per-capacity event walk (alatWalk
// in replay.go). Itanium's ALAT is fully associative; this
// implementation indexes the slot array two ways — by
// (activation, register) for insert/check and by address for store
// invalidation — so every operation is O(1) in the table size. The old
// linear scans made alatInvalidate, which runs on every dynamic store,
// O(ALATSize) on the hottest path of the simulator.
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
// one word so the byKey map hashes a single uint64 (the fast map path)
// instead of a two-field struct; register numbers are per-function
// indices (far below 2^16) and activation ids are bounded by MaxSteps
// (far below 2^47), so the packing cannot collide.
type alatKey uint64

func makeALATKey(frameID int64, reg int) alatKey {
	return alatKey(uint64(frameID)<<16 | uint64(reg))
}

// alatMapHint caps the capacity hint of the table's maps: the maps grow
// with live entries like the slots do, never with the configured
// capacity, which nothing bounds.
const alatMapHint = 64

// alat is the table. Its storage grows with use rather than with the
// configured capacity: slots holds only the slots ever taken, so a
// table of 2^40 entries costs what its live entries cost. The order in
// which slots are taken is exactly the documented one — invalidated
// slots LIFO first, then never-used slots in increasing order, then
// round-robin eviction once all size slots are in use.
type alat struct {
	size   int             // capacity in entries
	slots  []alatEntry     // the slots taken so far, at most size
	byKey  map[alatKey]int // (frameID, reg) -> slot of its valid entry
	byAddr map[int][]int   // address -> slots with valid entries for it
	free   []int           // LIFO stack of invalidated slots
	victim int             // round-robin eviction cursor
	// evictions counts capacity evictions (Counters.ALATEvictions).
	evictions int64
}

func newALAT(size int) *alat {
	hint := min(size, alatMapHint)
	return &alat{
		size:   size,
		slots:  make([]alatEntry, 0, hint),
		byKey:  make(map[alatKey]int, hint),
		byAddr: make(map[int][]int, hint),
	}
}

// unindexAddr removes slot i from addr's slot list.
func (a *alat) unindexAddr(i, addr int) {
	list := a.byAddr[addr]
	for j, s := range list {
		if s == i {
			list[j] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(a.byAddr, addr)
	} else {
		a.byAddr[addr] = list
	}
}

// indexAddr adds slot i to addr's slot list.
func (a *alat) indexAddr(i, addr int) {
	a.byAddr[addr] = append(a.byAddr[addr], i)
}

// insert allocates (or refreshes) the entry for a register.
func (a *alat) insert(frameID int64, reg, addr int) {
	k := makeALATKey(frameID, reg)
	if i, ok := a.byKey[k]; ok {
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
		delete(a.byKey, makeALATKey(e.frameID, e.reg))
		a.unindexAddr(i, e.addr)
		a.evictions++
	}
	a.slots[i] = alatEntry{valid: true, frameID: frameID, reg: reg, addr: addr}
	a.byKey[k] = i
	a.indexAddr(i, addr)
}

// check reports whether the register's entry survives with the same
// address (a successful ld.c).
func (a *alat) check(frameID int64, reg, addr int) bool {
	i, ok := a.byKey[makeALATKey(frameID, reg)]
	return ok && a.slots[i].addr == addr
}

// invalidate drops every entry at addr (a conflicting store).
func (a *alat) invalidate(addr int) {
	list, ok := a.byAddr[addr]
	if !ok {
		return
	}
	delete(a.byAddr, addr)
	for _, i := range list {
		e := &a.slots[i]
		e.valid = false
		delete(a.byKey, makeALATKey(e.frameID, e.reg))
		a.free = append(a.free, i)
	}
}
