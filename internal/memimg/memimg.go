// Package memimg is the slot-addressed memory image both execution
// engines (the machine's functional engine and the reference
// interpreter) run on. The address space is the one they have always
// used: globals at [0, GlobSize), the call stack above them up to
// heapBase, and the heap from heapBase upward, one 64-bit slot per
// address. Only the memory a run touches is materialized:
//
//   - the globals-and-stack region [0, heapBase) is one slice that
//     grows on demand, by doubling and capped at heapBase; a slot past
//     its end has never been written and reads 0;
//   - the heap is a second slice, addressed as a−heapBase, that holds
//     exactly the slots allocated so far.
//
// A run that touches a few KB of stack therefore never builds, zeroes
// or copies the whole reserved stack region, and an allocation never
// copies the stack.
package memimg

// minLow is the smallest length the globals-and-stack slice grows to,
// so a program with few globals does not grow through tiny steps.
const minLow = 512

// Image is one run's memory. The zero value is not usable; see New.
type Image struct {
	low      []uint64 // [0, len(low)) of [0, heapBase); the rest reads 0
	heap     []uint64 // [heapBase, heapBase+len(heap))
	heapBase int
}

// New returns an image whose heap starts at heapBase, with the global
// slots [0, globSize) materialized and set from init (address → value).
func New(heapBase, globSize int, init map[int]uint64) Image {
	img := Image{low: make([]uint64, globSize), heapBase: heapBase}
	for a, v := range init {
		img.low[a] = v
	}
	return img
}

// HeapBase is the first heap address.
func (m *Image) HeapBase() int { return m.heapBase }

// Valid reports whether a is an address a load or store may use: any
// slot of the globals-and-stack region, or an allocated heap slot.
func (m *Image) Valid(a int) bool {
	return a >= 0 && a < m.heapBase+len(m.heap)
}

// Load returns the slot at a valid address.
func (m *Image) Load(a int) uint64 {
	if a >= m.heapBase {
		return m.heap[a-m.heapBase]
	}
	if a < len(m.low) {
		return m.low[a]
	}
	return 0
}

// Store writes the slot at a valid address.
func (m *Image) Store(a int, v uint64) {
	if a >= m.heapBase {
		m.heap[a-m.heapBase] = v
		return
	}
	if a >= len(m.low) {
		m.growLow(a)
	}
	m.low[a] = v
}

// growLow extends the globals-and-stack slice to cover address a.
func (m *Image) growLow(a int) {
	n := min(max(2*len(m.low), a+1, minLow), m.heapBase)
	m.low = append(m.low, make([]uint64, n-len(m.low))...)
}

// Clear zeroes the n slots from a, all below heapBase (a frame on
// entry). Slots not yet materialized already read 0.
func (m *Image) Clear(a, n int) {
	if end := min(a+n, len(m.low)); a < end {
		clear(m.low[a:end])
	}
}

// Alloc reserves n zeroed heap slots and returns the first one's
// address. It grows only the heap: the stack region is never copied.
func (m *Image) Alloc(n int) int {
	start := m.heapBase + len(m.heap)
	m.heap = append(m.heap, make([]uint64, n)...)
	return start
}
