package machine

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestALATEvictionOrder pins the explicit eviction contract the
// timing engine's ALAT re-simulation depends on: slots fill 0,1,2,…; a full
// table evicts in strict round-robin slot order; refresh keeps an entry
// in its slot; invalidated slots are reused LIFO.
func TestALATEvictionOrder(t *testing.T) {
	a := newALAT(3)

	// fill order: slot 0, 1, 2
	a.insert(1, 0, 100)
	a.insert(1, 1, 101)
	a.insert(1, 2, 102)
	for i, wantReg := range []int{0, 1, 2} {
		if got := a.slots[i]; !got.valid || got.reg != wantReg {
			t.Fatalf("slot %d = %+v, want reg %d", i, got, wantReg)
		}
	}

	// capacity eviction: round-robin starting at slot 0
	a.insert(1, 3, 103) // evicts (1,0) from slot 0
	if a.check(1, 0, 100) {
		t.Error("(1,0) should have been evicted first (slot 0)")
	}
	if !a.check(1, 3, 103) || a.slots[0].reg != 3 {
		t.Errorf("(1,3) should occupy slot 0, slots=%+v", a.slots)
	}
	a.insert(1, 4, 104) // evicts (1,1) from slot 1
	if a.check(1, 1, 101) {
		t.Error("(1,1) should have been evicted second (slot 1)")
	}
	if a.evictions != 2 {
		t.Errorf("evictions = %d, want 2", a.evictions)
	}

	// refresh: a re-inserted register keeps its slot and evicts nothing
	a.insert(1, 2, 202)
	if a.slots[2].reg != 2 || a.slots[2].addr != 202 {
		t.Errorf("refresh moved the entry: slots=%+v", a.slots)
	}
	if a.evictions != 2 {
		t.Errorf("refresh must not evict, evictions = %d", a.evictions)
	}
	if a.check(1, 2, 102) {
		t.Error("stale address must miss after refresh")
	}
	if !a.check(1, 2, 202) {
		t.Error("refreshed address must hit")
	}

	// invalidation frees the slot for LIFO reuse without counting as an
	// eviction, and drops every entry at the address
	a.invalidate(202) // frees slot 2
	if a.check(1, 2, 202) {
		t.Error("store invalidation must drop the entry")
	}
	a.insert(1, 6, 600) // must reuse freed slot 2, not evict
	if a.slots[2].reg != 6 {
		t.Errorf("freed slot not reused LIFO: slots=%+v", a.slots)
	}
	if a.evictions != 2 {
		t.Errorf("free-slot reuse must not evict, evictions = %d", a.evictions)
	}

	// frame isolation: same register number in another activation is a
	// distinct entry
	if a.check(2, 6, 600) {
		t.Error("frame 2 must not see frame 1's entry")
	}
}

// TestALATInvalidateDropsAllEntriesAtAddress covers multiple registers
// advancing the same address: one conflicting store kills all of them.
func TestALATInvalidateDropsAllEntriesAtAddress(t *testing.T) {
	a := newALAT(4)
	a.insert(1, 0, 7)
	a.insert(1, 1, 7)
	a.insert(1, 2, 8)
	a.invalidate(7)
	if a.check(1, 0, 7) || a.check(1, 1, 7) {
		t.Error("both entries at addr 7 must be invalidated")
	}
	if !a.check(1, 2, 8) {
		t.Error("entry at addr 8 must survive")
	}
	// slot 3 was never used, and invalidation freed the two addr-7 slots
	if len(a.free) != 2 || len(a.slots) != 3 {
		t.Errorf("free list = %v with %d of %d slots taken, want 2 freed and slot 3 unused", a.free, len(a.slots), a.size)
	}
}

// mapALAT is the table as it was with Go maps for indexes: the
// reference FuzzALAT holds the slice-indexed alat to. Every operation
// is the same, step for step, so the two must agree on every check,
// slot, free stack, victim cursor and eviction count.
type mapALAT struct {
	size      int
	slots     []alatEntry
	byKey     map[uint64]int
	byAddr    map[int][]int
	free      []int
	victim    int
	evictions int64
}

func newMapALAT(size int) *mapALAT {
	return &mapALAT{size: size, byKey: map[uint64]int{}, byAddr: map[int][]int{}}
}

func (a *mapALAT) unindexAddr(i, addr int) {
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

func (a *mapALAT) insert(frameID int64, reg, addr int) {
	k := alatKey(frameID, reg)
	if i, ok := a.byKey[k]; ok {
		e := &a.slots[i]
		if e.addr != addr {
			a.unindexAddr(i, e.addr)
			e.addr = addr
			a.byAddr[addr] = append(a.byAddr[addr], i)
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
		delete(a.byKey, alatKey(e.frameID, e.reg))
		a.unindexAddr(i, e.addr)
		a.evictions++
	}
	a.slots[i] = alatEntry{valid: true, frameID: frameID, reg: reg, addr: addr}
	a.byKey[k] = i
	a.byAddr[addr] = append(a.byAddr[addr], i)
}

func (a *mapALAT) check(frameID int64, reg, addr int) bool {
	i, ok := a.byKey[alatKey(frameID, reg)]
	return ok && a.slots[i].addr == addr
}

func (a *mapALAT) invalidate(addr int) {
	list, ok := a.byAddr[addr]
	if !ok {
		return
	}
	delete(a.byAddr, addr)
	for _, i := range list {
		e := &a.slots[i]
		e.valid = false
		delete(a.byKey, alatKey(e.frameID, e.reg))
		a.free = append(a.free, i)
	}
}

// alatSizes are the capacities FuzzALAT runs every sequence at: the
// degenerate tables, a common one, and one whose capacity nothing
// could allocate.
var alatSizes = []int{1, 2, 3, 32, 1 << 40}

// runALATOps decodes ops three bytes an operation — kind, then
// (frame, register) and an address from small ranges, so that keys
// and addresses collide often — and applies each to the slice-indexed
// table and to the map reference, failing on the first difference.
func runALATOps(t *testing.T, size int, ops []byte) {
	t.Helper()
	a, ref := newALAT(size), newMapALAT(size)
	for n := 0; n+3 <= len(ops); n += 3 {
		kind, key, addr := ops[n]%3, ops[n+1], int(ops[n+2]%24)
		frame, reg := int64(key>>5), int(key&31)
		switch kind {
		case 0:
			a.insert(frame, reg, addr)
			ref.insert(frame, reg, addr)
		case 1:
			if got, want := a.check(frame, reg, addr), ref.check(frame, reg, addr); got != want {
				t.Fatalf("size %d op %d: check(%d,%d,%d) = %v, reference %v", size, n/3, frame, reg, addr, got, want)
			}
		case 2:
			a.invalidate(addr)
			ref.invalidate(addr)
		}
		if !slices.Equal(a.slots, ref.slots) || !slices.Equal(a.free, ref.free) ||
			a.victim != ref.victim || a.evictions != ref.evictions {
			t.Fatalf("size %d op %d (kind %d, frame %d, reg %d, addr %d): table diverged\n got slots %v free %v victim %d evictions %d\nwant slots %v free %v victim %d evictions %d",
				size, n/3, kind, frame, reg, addr, a.slots, a.free, a.victim, a.evictions, ref.slots, ref.free, ref.victim, ref.evictions)
		}
		if a.byKey.n != len(ref.byKey) || a.byAddr.n != len(ref.byAddr) {
			t.Fatalf("size %d op %d: index sizes %d/%d, reference %d/%d", size, n/3, a.byKey.n, a.byAddr.n, len(ref.byKey), len(ref.byAddr))
		}
	}
}

// FuzzALAT holds the slice-indexed table to the map-indexed reference
// over fuzzed insert/check/invalidate sequences at every size in
// alatSizes.
func FuzzALAT(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 5, 1, 1, 5, 2, 0, 5, 1, 2, 5, 0, 3, 6})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 2, 0, 4, 2, 0, 1, 3, 2, 0, 1, 1, 3, 2})
	rng := rand.New(rand.NewPCG(27, 1))
	for range 4 {
		ops := make([]byte, 3*2000)
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, size := range alatSizes {
			runALATOps(t, size, ops)
		}
	})
}
