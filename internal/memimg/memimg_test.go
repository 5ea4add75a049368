package memimg

import "testing"

const (
	globSize = 4
	heapBase = globSize + 1<<20 // the default stack reservation
)

// TestImageSemantics pins the flat-image behaviour the engines rely on:
// globals start initialized, an unwritten slot anywhere below heapBase
// reads 0, a store high in the never-reached stack region reads back,
// a frame's slots keep their values after it is popped until the next
// frame there clears them, and the heap ends exactly at its last
// allocated slot.
func TestImageSemantics(t *testing.T) {
	m := New(heapBase, globSize, map[int]uint64{1: 11, 3: 33})
	for a, want := range []uint64{0, 11, 0, 33} {
		if got := m.Load(a); got != want {
			t.Errorf("global %d = %d, want %d", a, got, want)
		}
	}

	// far above the stack's high-water mark, below heapBase
	high := heapBase - 1
	if !m.Valid(high) || m.Load(high) != 0 || m.Load(heapBase/2) != 0 {
		t.Fatal("never-written stack slots must be valid and read 0")
	}
	m.Store(high, 42)
	if got := m.Load(high); got != 42 {
		t.Fatalf("stack slot %d = %d after a store of 42", high, got)
	}
	if got := m.Load(high - 1); got != 0 {
		t.Fatalf("unwritten neighbour of a stored slot = %d, want 0", got)
	}

	// a popped frame's slot keeps its value; a new frame there clears it
	base := globSize
	m.Store(base+2, 7)
	if got := m.Load(base + 2); got != 7 {
		t.Fatalf("stale frame slot = %d, want 7", got)
	}
	m.Clear(base, 3)
	if got := m.Load(base + 2); got != 0 {
		t.Fatalf("cleared frame slot = %d, want 0", got)
	}
	m.Clear(heapBase-2, 2) // clearing across unmaterialized slots is fine
	if got := m.Load(high); got != 0 {
		t.Fatalf("cleared slot %d = %d, want 0", high, got)
	}

	// the heap: [heapBase, heapBase+allocated) and nothing past it
	if m.Valid(heapBase) {
		t.Fatal("heapBase is valid before any allocation")
	}
	p := m.Alloc(4)
	q := m.Alloc(0)
	r := m.Alloc(2)
	if p != heapBase || q != heapBase+4 || r != heapBase+4 {
		t.Fatalf("allocations at %d, %d, %d; want %d, %d, %d", p, q, r, heapBase, heapBase+4, heapBase+4)
	}
	last := heapBase + 5
	m.Store(last, 9)
	if !m.Valid(last) || m.Load(last) != 9 || m.Load(p) != 0 {
		t.Fatal("heap slots must be valid, zeroed and writable up to the last allocated one")
	}
	for _, a := range []int{last + 1, -1} {
		if m.Valid(a) {
			t.Errorf("address %d is valid", a)
		}
	}
	if got := m.Load(high - 1); got != 0 {
		t.Fatalf("allocation disturbed the stack region: slot %d = %d", high-1, got)
	}
}

// TestGrowAcrossDoubling stores into consecutive stack slots across the
// low region's growth steps and checks that every earlier value
// survives each step and that growth stops at heapBase.
func TestGrowAcrossDoubling(t *testing.T) {
	const base = 16 + 4096
	m := New(base, 16, nil)
	for a := 0; a < base; a++ {
		m.Store(a, uint64(a)+1)
		if a == minLow-1 || a == minLow || a == 2*minLow {
			for b := 0; b <= a; b++ {
				if got := m.Load(b); got != uint64(b)+1 {
					t.Fatalf("after storing %d: slot %d = %d, want %d", a, b, got, b+1)
				}
			}
			if got := m.Load(a + 1); got != 0 {
				t.Fatalf("after storing %d: slot %d = %d, want 0", a, a+1, got)
			}
		}
	}
	if len(m.low) != base {
		t.Fatalf("low region grew to %d slots, want it capped at %d", len(m.low), base)
	}
	m.Alloc(1)
	if got := m.Load(base - 1); got != base {
		t.Fatalf("slot %d = %d after an allocation, want %d", base-1, got, base)
	}
}
