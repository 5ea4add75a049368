package machine

// Test helpers shared with the external test package (machine_test),
// whose differential tests import the oracle — an import package
// machine's own tests cannot make without a cycle.

// ZooProgram is one replay-zoo entry: a program and its input.
type ZooProgram struct {
	Prog *Program
	Args []int64
}

// ReplayPrograms builds a small zoo of programs exercising every
// trace-relevant behavior: branches, calls/recursion, advanced loads
// with hits/misses/evictions, speculative loads with deferred faults,
// the edges of the memory image, and plain arithmetic.
func ReplayPrograms() map[string]ZooProgram {
	// loop with ALAT traffic: ld.a / conflicting stores / ld.c inside a
	// counted loop, enough iterations to exercise capacity at small sizes
	alatLoop := buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},  // i = 0
		{Op: OpMovI, Rd: 1, Imm: 40}, // n
		{Op: OpMovI, Rd: 5, Imm: 0},  // acc
		{Op: OpMovI, Rd: 7, Imm: 1},
		{Op: OpSub, Rd: 2, Rs: 0, Rt: 1}, // 4 L: i-n
		{Op: OpBeqz, Rs: 2, Target: 15},  // exit
		{Op: OpMod, Rd: 3, Rs: 0, Rt: 1}, // slot = i % n (all < glob)
		{Op: OpLEA, Rd: 4, Imm: 0},
		{Op: OpAdd, Rd: 4, Rs: 4, Rt: 3}, // &glob[i%n]
		{Op: OpLdA, Rd: 6, Rs: 4},        // advanced load
		{Op: OpSt, Rd: 4, Rs: 0},         // conflicting store (invalidates)
		{Op: OpLdC, Rd: 6, Rs: 4},        // check: always misses
		{Op: OpAdd, Rd: 5, Rs: 5, Rt: 6}, // acc += value
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 7}, // i++
		{Op: OpBr, Target: 4},
		{Op: OpRet, Rs: 5}, // 15
	}, 8, 64)

	// recursion with a print: deep call trees, per-frame activations
	fib := &Program{
		Funcs: map[string]*FuncCode{
			"main": {Name: "main", NumRegs: 3, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: 12},
				{Op: OpCall, Rd: 1, Fn: "fib", ArgRegs: []int{0}},
				{Op: OpPrint, ArgRegs: []int{1}, FloatRs: []bool{false}},
				{Op: OpRet, Rs: 1},
			}},
			// the parameter arrives in r0 (regs[0..NumParams-1])
			"fib": {Name: "fib", NumRegs: 6, NumParams: 1, FrameSize: 2, Instrs: []Instr{
				{Op: OpMovI, Rd: 5, Imm: 1},
				{Op: OpSub, Rd: 1, Rs: 0, Rt: 5}, // n-1
				{Op: OpBnez, Rs: 1, Target: 4},
				{Op: OpRet, Rs: 0},                                // fib(1) = 1
				{Op: OpBnez, Rs: 0, Target: 6},                    // 4
				{Op: OpRet, Rs: 0},                                // fib(0) = 0
				{Op: OpCall, Rd: 3, Fn: "fib", ArgRegs: []int{1}}, // 6: fib(n-1)
				{Op: OpMovI, Rd: 5, Imm: 2},
				{Op: OpSub, Rd: 2, Rs: 0, Rt: 5}, // n-2
				{Op: OpCall, Rd: 4, Fn: "fib", ArgRegs: []int{2}},
				{Op: OpAdd, Rd: 1, Rs: 3, Rt: 4},
				{Op: OpRet, Rs: 1},
			}},
		},
		GlobSize:   4,
		GlobalInit: map[int]uint64{},
	}

	// control speculation with deferred faults (ld.s through an invalid
	// address on most iterations) plus speculative-advanced loads
	spec := buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},
		{Op: OpMovI, Rd: 1, Imm: 20},
		{Op: OpMovI, Rd: 5, Imm: 0},
		{Op: OpMovI, Rd: 7, Imm: 1},
		{Op: OpSub, Rd: 2, Rs: 0, Rt: 1}, // 4 L:
		{Op: OpBeqz, Rs: 2, Target: 15},
		{Op: OpAnd, Rd: 3, Rs: 0, Rt: 7}, // i & 1
		{Op: OpMovI, Rd: 4, Imm: -1},     // invalid addr
		{Op: OpBnez, Rs: 3, Target: 10},  // odd i: keep -1 (defer)
		{Op: OpLEA, Rd: 4, Imm: 2},       // even i: valid addr
		{Op: OpLdS, Rd: 6, Rs: 4},        // 10: may defer (NaT)
		{Op: OpLdSA, Rd: 6, Rs: 4},       // speculative-advanced variant
		{Op: OpAdd, Rd: 5, Rs: 5, Rt: 6},
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 7}, // i++
		{Op: OpBr, Target: 4},
		{Op: OpRet, Rs: 5}, // 15
	}, 8, 8)

	// ALAT slot order: several registers advance the same address, one
	// of them is refreshed to another address (a swap-remove from the
	// first address's entry list), and one store then frees the rest in
	// list order. The freed slots are reused LIFO and later inserts evict
	// round-robin, so at small capacities which checks hit depends on the
	// exact free order — the part of alat.go's contract the oracle must
	// reproduce.
	alatOrder := buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0}, // i
		{Op: OpMovI, Rd: 1, Imm: 6}, // n
		{Op: OpMovI, Rd: 7, Imm: 1},
		{Op: OpLEA, Rd: 2, Imm: 0}, // A
		{Op: OpLEA, Rd: 3, Imm: 1}, // B
		{Op: OpLEA, Rd: 4, Imm: 2}, // C
		{Op: OpLEA, Rd: 5, Imm: 3}, // D
		// slots fill 0, 1, …: at capacity 2 the third insert evicts r20
		{Op: OpLdA, Rd: 20, Rs: 2},
		{Op: OpLdA, Rd: 21, Rs: 3},
		{Op: OpLdA, Rd: 22, Rs: 4},
		{Op: OpLdC, Rd: 20, Rs: 2},
		{Op: OpSub, Rd: 6, Rs: 0, Rt: 1}, // 11 L: i-n
		{Op: OpBeqz, Rs: 6, Target: 29},
		{Op: OpLdA, Rd: 10, Rs: 2}, // four entries at A: list [0 1 2 3]
		{Op: OpLdA, Rd: 11, Rs: 2},
		{Op: OpLdA, Rd: 12, Rs: 2},
		{Op: OpLdA, Rd: 13, Rs: 2},
		{Op: OpLdA, Rd: 10, Rs: 3}, // refresh r10 to B: A's list becomes [3 1 2]
		{Op: OpSt, Rd: 2, Rs: 0},   // frees slots 3, 1, 2 in that order
		{Op: OpLdA, Rd: 14, Rs: 4}, // reuse LIFO: slot 2
		{Op: OpLdA, Rd: 15, Rs: 4}, // slot 1
		{Op: OpLdA, Rd: 16, Rs: 4}, // slot 3
		{Op: OpLdA, Rd: 17, Rs: 5}, // evictions, round robin
		{Op: OpLdA, Rd: 18, Rs: 5},
		{Op: OpLdA, Rd: 19, Rs: 5},
		{Op: OpLdC, Rd: 14, Rs: 4}, // which of these hit depends on the free order
		{Op: OpLdC, Rd: 15, Rs: 4},
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 7}, // i++
		{Op: OpBr, Target: 11},
		{Op: OpRet, Rs: 0}, // 29
	}, 23, 4)

	return map[string]ZooProgram{
		"alatLoop":  {alatLoop, nil},
		"alatOrder": {alatOrder, nil},
		"fib":       {fib, nil},
		"image":     {imageProg(OpLdS), nil},
		"spec":      {spec, nil},
	}
}

// ImageFaultProgram is the zoo's "image" program with its final
// speculative load one past the heap made a plain load, so the run
// faults there.
func ImageFaultProgram() ZooProgram {
	return ZooProgram{imageProg(OpLd), nil}
}

// imageProg walks the edges of the memory image under the default
// layout (heapBase = GlobSize + Defaults().StackSlots): it reads a
// never-written slot in the middle of the stack region, stores to the
// last stack slot (far above the stack's high-water mark) and reads it
// and its never-written neighbour back, recurses four frames deep and
// then reads two slots of the popped frames (stale values, as in a flat
// image), and finally loads the last slot of a heap allocation and,
// with pastEnd, the slot one past it.
func imageProg(pastEnd Opcode) *Program {
	const globSize = 4
	heapBase := int64(globSize + Defaults().StackSlots)
	return &Program{
		Funcs: map[string]*FuncCode{
			"main": {Name: "main", NumRegs: 18, FrameSize: 2, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: heapBase / 2},
				{Op: OpLd, Rd: 1, Rs: 0}, // never written: 0
				{Op: OpMovI, Rd: 2, Imm: heapBase - 1},
				{Op: OpMovI, Rd: 3, Imm: 42},
				{Op: OpSt, Rd: 2, Rs: 3},
				{Op: OpLd, Rd: 4, Rs: 2}, // 42
				{Op: OpMovI, Rd: 5, Imm: heapBase - 2},
				{Op: OpLd, Rd: 6, Rs: 5}, // never written: 0
				{Op: OpMovI, Rd: 7, Imm: 3},
				{Op: OpCall, Rd: 8, Fn: "down", ArgRegs: []int{7}},
				// frames sit at globSize+2 (main is 2 slots), 2 slots each
				{Op: OpMovI, Rd: 9, Imm: globSize + 2 + 3*2},
				{Op: OpLd, Rd: 10, Rs: 9}, // down(0)'s slot: 100
				{Op: OpMovI, Rd: 9, Imm: globSize + 2 + 1*2},
				{Op: OpLd, Rd: 11, Rs: 9}, // down(2)'s slot: 102
				{Op: OpMovI, Rd: 12, Imm: 3},
				{Op: OpAlloc, Rd: 13, Rs: 12},
				{Op: OpMovI, Rd: 12, Imm: 2},
				{Op: OpAdd, Rd: 14, Rs: 13, Rt: 12}, // last slot
				{Op: OpSt, Rd: 14, Rs: 3},
				{Op: OpLd, Rd: 15, Rs: 14}, // 42
				{Op: OpMovI, Rd: 12, Imm: 1},
				{Op: OpAdd, Rd: 16, Rs: 14, Rt: 12}, // one past the end
				{Op: pastEnd, Rd: 17, Rs: 16},
				{Op: OpPrint, ArgRegs: []int{1, 4, 6, 10, 11, 15}, FloatRs: make([]bool, 6)},
				{Op: OpAdd, Rd: 4, Rs: 4, Rt: 11},
				{Op: OpRet, Rs: 4},
			}},
			// down(n) stores 100+n in its frame slot, then recurses to 0
			"down": {Name: "down", NumRegs: 6, NumParams: 1, FrameSize: 2, Instrs: []Instr{
				{Op: OpLEA, Rd: 1, Imm: 0, IsFrame: true},
				{Op: OpMovI, Rd: 2, Imm: 100},
				{Op: OpAdd, Rd: 2, Rs: 2, Rt: 0},
				{Op: OpSt, Rd: 1, Rs: 2},
				{Op: OpBnez, Rs: 0, Target: 6},
				{Op: OpRet, Rs: 0},
				{Op: OpMovI, Rd: 3, Imm: 1},
				{Op: OpSub, Rd: 4, Rs: 0, Rt: 3},
				{Op: OpCall, Rd: 5, Fn: "down", ArgRegs: []int{4}},
				{Op: OpRet, Rs: 5},
			}},
		},
		GlobSize:   globSize,
		GlobalInit: map[int]uint64{1: 5},
	}
}

// ReplaySweep is the grid of Configs the differential tests run: both
// timing models, ALAT capacity extremes, latency extremes.
func ReplaySweep() []Config {
	return []Config{
		{},
		{Pipelined: true},
		{ALATSize: 2},
		{ALATSize: 2, Pipelined: true},
		{ALATSize: 4},
		{ALATSize: 4, Pipelined: true},
		{ALATSize: 256},
		{IntLoadLat: 8, FPLoadLat: 24, CheckMissPen: 16},
		{IntLoadLat: 8, FPLoadLat: 24, CheckMissPen: 16, Pipelined: true},
		{CheckHitLat: Free, CheckMissPen: Free},
		{IntMulLat: 1, IntDivLat: 40, CallOverhead: 7, Pipelined: true},
	}
}
