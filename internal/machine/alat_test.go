package machine

import "testing"

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
