package machine

// Test helpers shared with the external test package (machine_test),
// whose differential tests import the oracle — an import package
// machine's own tests cannot make without a cycle.

// WalkedLanes re-times t under cfgs exactly as ReplayBatch does and
// reports how many scoreboard lanes the pipelined walk advanced: one per
// distinct pipelined clock, never one per config.
func WalkedLanes(prog *Program, t *Trace, cfgs []Config) (int, error) {
	_, stats, err := replayBatch(prog, t, cfgs)
	return stats.lanes, err
}

// MemoTransitions re-times t under cfgs exactly as ReplayBatch does and
// reports how many block transitions the pipelined walk's memo held at
// the end: 0 when the memo gave up and the walk ran per instruction.
func MemoTransitions(prog *Program, t *Trace, cfgs []Config) (int, error) {
	_, stats, err := replayBatch(prog, t, cfgs)
	return stats.transitions, err
}

// KeyedLookups re-times t under cfgs exactly as ReplayBatch does and
// reports how many block entries the pipelined walk resolved by a keyed
// memo lookup rather than by following a link from the transition
// before: 0 when the memo gave up.
func KeyedLookups(prog *Program, t *Trace, cfgs []Config) (int, error) {
	_, stats, err := replayBatch(prog, t, cfgs)
	return stats.keyed, err
}

// CycleSkips re-times t under cfgs exactly as ReplayBatch does and
// reports how many block entries the pipelined walk resolved by
// skipping the repeats of a cycle rather than one entry at a time.
func CycleSkips(prog *Program, t *Trace, cfgs []Config) (int, error) {
	_, stats, err := replayBatch(prog, t, cfgs)
	return stats.skipped, err
}

// ALATSummaries returns the ALAT summary t's memo holds at capacity
// size (nil when it holds none) and a fresh walk of t's events at that
// capacity, which bypasses the memo.
func ALATSummaries(t *Trace, size int) (memo, fresh any) {
	if v, ok := t.alatMemo.Load(size); ok {
		memo = v
	}
	return memo, t.walkALAT(size)
}

// StoreEvents counts the store invalidations t's ALAT event stream
// holds.
func StoreEvents(t *Trace) int {
	n := 0
	for _, kinds := range t.ops.kinds {
		for _, k := range kinds {
			if k == opInval {
				n++
			}
		}
	}
	return n
}

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

	// a store armed only by a check's miss: the first store empties A,
	// so the first check misses and reloads, and that miss's entry is
	// what the second store must invalidate for the second check to
	// miss and read the second value. The last check arms A for one
	// more store; the store after it finds A unarmed, so the trace keeps
	// three of the four stores
	storeRearm := buildProg([]Instr{
		{Op: OpLEA, Rd: 0, Imm: 1}, // A
		{Op: OpMovI, Rd: 1, Imm: 5},
		{Op: OpMovI, Rd: 2, Imm: 9},
		{Op: OpLdA, Rd: 3, Rs: 0},
		{Op: OpSt, Rd: 0, Rs: 1},
		{Op: OpLdC, Rd: 3, Rs: 0}, // misses: reads 5
		{Op: OpSt, Rd: 0, Rs: 2},
		{Op: OpLdC, Rd: 3, Rs: 0}, // misses: reads 9
		{Op: OpSt, Rd: 0, Rs: 1},
		{Op: OpSt, Rd: 0, Rs: 2}, // unarmed: left out
		{Op: OpRet, Rs: 3},
	}, 4, 4)

	return map[string]ZooProgram{
		"alatLoop":    {alatLoop, nil},
		"alatOrder":   {alatOrder, nil},
		"chainExit":   {chainExitProg(), []int64{12}},
		"fib":         {fib, nil},
		"image":       {imageProg(OpLdS), nil},
		"latJoin":     {latJoinProg(), nil},
		"manyChecks":  {manyChecksProg(), nil},
		"nestedConst": {nestedProg(), []int64{40, 9, 0}},
		"nestedVary":  {nestedProg(), []int64{40, 9, 3}},
		"noRepeat":    {noRepeatProg(), []int64{10_000}},
		"period3Mid":  {periodProg(), []int64{60, 30}},
		"period3Word": {periodProg(), []int64{60, 21}},
		"spec":        {spec, nil},
		"storeRearm":  {storeRearm, nil},
		"streamSplit": {streamSplitProg(), []int64{120}},
	}
}

// periodProg runs args[0] iterations of a loop that reads three branch
// bits: the loop test, whether i < args[1], and whether i is not a
// multiple of 3 (below args[1]) or odd (from it on), which sends one
// iteration in three, then one in two, through a multiply. So the bits
// have a period of 9 until bit 3·args[1]+1, where they change: mid-word
// at args[1] = 30 (bit 91) and exactly at a 64-bit word boundary at
// args[1] = 21 (bit 64).
func periodProg() *Program {
	return buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0}, // i
		{Op: OpMovI, Rd: 9, Imm: 0},
		{Op: OpArg, Rd: 1, Rs: 9}, // n = args[0]
		{Op: OpMovI, Rd: 9, Imm: 1},
		{Op: OpArg, Rd: 2, Rs: 9}, // p = args[1]
		{Op: OpMovI, Rd: 3, Imm: 1},
		{Op: OpMovI, Rd: 4, Imm: 2},
		{Op: OpMovI, Rd: 5, Imm: 3},
		{Op: OpMovI, Rd: 10, Imm: 0},     // acc
		{Op: OpSub, Rd: 6, Rs: 0, Rt: 1}, // 9 L: i-n
		{Op: OpBeqz, Rs: 6, Target: 22},
		{Op: OpCmpLT, Rd: 7, Rs: 0, Rt: 2},
		{Op: OpBnez, Rs: 7, Target: 15},
		{Op: OpMod, Rd: 8, Rs: 0, Rt: 4}, // i % 2
		{Op: OpBr, Target: 16},
		{Op: OpMod, Rd: 8, Rs: 0, Rt: 5}, // 15: i % 3
		{Op: OpBnez, Rs: 8, Target: 19},  // 16
		{Op: OpMul, Rd: 10, Rs: 10, Rt: 4},
		{Op: OpAdd, Rd: 10, Rs: 10, Rt: 3},
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 3}, // 19: i++
		{Op: OpAdd, Rd: 10, Rs: 10, Rt: 0},
		{Op: OpBr, Target: 9},
		{Op: OpRet, Rs: 10}, // 22
	}, 11, 4)
}

// streamSplitProg runs args[0] iterations of a loop with one branch
// bit per iteration. Each iteration advances r10, r11 and r12 to three
// addresses, stores to r11's address or to a free one as a
// pseudo-random bit picks, advances r13, checks r10 and reads it. With
// 4 or more ALAT entries every check hits, so that miss stream repeats
// with the branch bits; with 3, r13 takes r11's freed slot or evicts,
// and which it is follows the store, so the smaller capacity's stream
// breaks the period the other keeps.
func streamSplitProg() *Program {
	return buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0}, // i
		{Op: OpMovI, Rd: 9, Imm: 0},
		{Op: OpArg, Rd: 1, Rs: 9}, // n = args[0]
		{Op: OpMovI, Rd: 2, Imm: 1},
		{Op: OpMovI, Rd: 3, Imm: 12345}, // x
		{Op: OpMovI, Rd: 4, Imm: 1103515245},
		{Op: OpMovI, Rd: 5, Imm: 16},
		{Op: OpLEA, Rd: 14, Imm: 0},      // A
		{Op: OpLEA, Rd: 15, Imm: 1},      // B
		{Op: OpLEA, Rd: 16, Imm: 2},      // C
		{Op: OpLEA, Rd: 17, Imm: 4},      // E
		{Op: OpSub, Rd: 6, Rs: 0, Rt: 1}, // 11 L: i-n
		{Op: OpBeqz, Rs: 6, Target: 29},
		{Op: OpLdA, Rd: 10, Rs: 14},
		{Op: OpLdA, Rd: 11, Rs: 15},
		{Op: OpLdA, Rd: 12, Rs: 16},
		{Op: OpMul, Rd: 3, Rs: 3, Rt: 4}, // x = x*a + c
		{Op: OpMovI, Rd: 7, Imm: 12345},
		{Op: OpAdd, Rd: 3, Rs: 3, Rt: 7},
		{Op: OpShr, Rd: 7, Rs: 3, Rt: 5}, // bit 16 of x
		{Op: OpAnd, Rd: 7, Rs: 7, Rt: 2},
		{Op: OpAdd, Rd: 7, Rs: 7, Rt: 7},
		{Op: OpAdd, Rd: 7, Rs: 7, Rt: 2}, // address 1 (B) or 3 (free)
		{Op: OpSt, Rd: 7, Rs: 0},
		{Op: OpLdA, Rd: 13, Rs: 17},
		{Op: OpLdC, Rd: 10, Rs: 14},
		{Op: OpAdd, Rd: 18, Rs: 18, Rt: 10}, // waits for a miss's reload
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 2},    // i++
		{Op: OpBr, Target: 11},
		{Op: OpRet, Rs: 0}, // 29
	}, 19, 8)
}

// nestedProg runs args[0] iterations of an outer loop around an inner
// loop of args[1] + (j & args[2]) iterations, j the outer index: with
// args[2] = 0 every inner loop has the same trip count, so the outer
// loop repeats as a whole once its inner loops are skipped; with
// args[2] = 3 the trip counts cycle through four values.
func nestedProg() *Program {
	return buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0}, // j
		{Op: OpMovI, Rd: 9, Imm: 0},
		{Op: OpArg, Rd: 1, Rs: 9}, // outer trips
		{Op: OpMovI, Rd: 9, Imm: 1},
		{Op: OpArg, Rd: 2, Rs: 9}, // inner trips
		{Op: OpMovI, Rd: 9, Imm: 2},
		{Op: OpArg, Rd: 3, Rs: 9}, // inner trip mask
		{Op: OpMovI, Rd: 4, Imm: 1},
		{Op: OpMovI, Rd: 10, Imm: 0},     // acc
		{Op: OpSub, Rd: 5, Rs: 0, Rt: 1}, // 9 outer: j-n
		{Op: OpBeqz, Rs: 5, Target: 24},
		{Op: OpAnd, Rd: 6, Rs: 0, Rt: 3},
		{Op: OpAdd, Rd: 6, Rs: 6, Rt: 2}, // trips = m + (j & mask)
		{Op: OpMovI, Rd: 7, Imm: 0},      // i
		{Op: OpSub, Rd: 8, Rs: 7, Rt: 6}, // 14 inner: i-trips
		{Op: OpBeqz, Rs: 8, Target: 20},
		{Op: OpMul, Rd: 11, Rs: 7, Rt: 7},
		{Op: OpAdd, Rd: 10, Rs: 10, Rt: 11},
		{Op: OpAdd, Rd: 7, Rs: 7, Rt: 4}, // i++
		{Op: OpBr, Target: 14},
		{Op: OpMul, Rd: 10, Rs: 10, Rt: 4}, // 20
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 4},   // j++
		{Op: OpNop},
		{Op: OpBr, Target: 9},
		{Op: OpRet, Rs: 10}, // 24
	}, 12, 4)
}

// chainExitProg runs args[0] iterations of a loop that starts an fdiv
// and an FP load, then calls a function: after the return a chain of
// linked blocks starts with both still in flight. Its first block waits
// for the load, its second overwrites the fdiv's register with a
// 1-cycle op, and from the second iteration on the chain leaves, by an
// edge not linked yet and then by a link, for a block whose call reads
// that register, as does the block after the call. Only a scoreboard
// settled before each call, from the chain's start, keeps the load's
// ready time and retires the fdiv there.
func chainExitProg() *Program {
	return &Program{
		Funcs: map[string]*FuncCode{
			"main": {Name: "main", NumRegs: 14, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: 0}, // i
				{Op: OpArg, Rd: 1, Rs: 0},   // n = args[0]
				{Op: OpMovI, Rd: 2, Imm: 1},
				{Op: OpMovI, Rd: 3, Imm: 3},
				{Op: OpI2F, Rd: 4, Rs: 2},
				{Op: OpI2F, Rd: 5, Rs: 3},
				{Op: OpLEA, Rd: 13, Imm: 1},
				{Op: OpSub, Rd: 7, Rs: 0, Rt: 1}, // 7 L: i-n
				{Op: OpBeqz, Rs: 7, Target: 23},
				{Op: OpFDiv, Rd: 6, Rs: 4, Rt: 5}, // in flight across the call
				{Op: OpLdF, Rd: 11, Rs: 13},       // read after it
				{Op: OpCall, Rd: 9, Fn: "nop"},    // a chain starts after it
				{Op: OpAdd, Rd: 0, Rs: 0, Rt: 2},  // i++
				{Op: OpAdd, Rd: 7, Rs: 11, Rt: 2}, // waits for the load
				{Op: OpBr, Target: 15},
				{Op: OpMovI, Rd: 6, Imm: 7}, // 15: overwrites the fdiv
				{Op: OpBr, Target: 17},
				{Op: OpShr, Rd: 8, Rs: 0, Rt: 2}, // 17: i >> 1
				{Op: OpBnez, Rs: 8, Target: 20},  // from i = 2 on
				{Op: OpBr, Target: 7},
				{Op: OpCall, Rd: 10, Fn: "use", ArgRegs: []int{6}}, // 20
				{Op: OpAdd, Rd: 12, Rs: 6, Rt: 10},
				{Op: OpBr, Target: 7},
				{Op: OpRet, Rs: 0}, // 23
			}},
			"nop": {Name: "nop", NumRegs: 1, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: 0},
				{Op: OpRet, Rs: 0},
			}},
			"use": {Name: "use", NumRegs: 2, NumParams: 1, Instrs: []Instr{
				{Op: OpAdd, Rd: 1, Rs: 0, Rt: 0},
				{Op: OpRet, Rs: 1},
			}},
		},
		GlobSize:   4,
		GlobalInit: map[int]uint64{},
	}
}

// noRepeatProg issues one fdiv whose result is never read, then runs
// a loop of args[0] iterations. While the fdiv is in flight every block
// entry sees it one iteration closer to ready, so under an FPDivLat
// longer than the run no block entry state repeats: the memo's worst
// case.
func noRepeatProg() *Program {
	return buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},
		{Op: OpArg, Rd: 1, Rs: 0}, // n = args[0]
		{Op: OpMovI, Rd: 2, Imm: 1},
		{Op: OpMovI, Rd: 3, Imm: 3},
		{Op: OpI2F, Rd: 4, Rs: 2},
		{Op: OpI2F, Rd: 5, Rs: 3},
		{Op: OpFDiv, Rd: 6, Rs: 4, Rt: 5}, // in flight, never read
		{Op: OpMovI, Rd: 7, Imm: 0},       // i
		{Op: OpSub, Rd: 8, Rs: 7, Rt: 1},  // 8 L: i-n
		{Op: OpBeqz, Rs: 8, Target: 12},
		{Op: OpAdd, Rd: 7, Rs: 7, Rt: 2}, // i++
		{Op: OpBr, Target: 8},
		{Op: OpRet, Rs: 7}, // 12
	}, 9, 4)
}

// manyChecksProg runs a loop whose body is one block holding 72
// checks, three in a row on each of 24 advanced loads from 7 addresses
// (1 to 6 loads each), after a store that invalidates one address per
// iteration, in a cycle of 8: a repeated check waits on the previous
// one's reload, so the number of misses, which varies by iteration and
// capacity, sets the block's cycles, and the block's outcomes span two
// 64-bit words.
func manyChecksProg() *Program {
	code := []Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},  // i
		{Op: OpMovI, Rd: 1, Imm: 16}, // n
		{Op: OpMovI, Rd: 2, Imm: 1},
		{Op: OpMovI, Rd: 3, Imm: 7},
		{Op: OpSub, Rd: 4, Rs: 0, Rt: 1}, // 4 L: i-n
		{Op: OpBeqz, Rs: 4},              // to the return, patched below
		{Op: OpAnd, Rd: 5, Rs: 0, Rt: 3}, // the store's address: i & 7
	}
	var addrs []int
	for a, loads := range []int{1, 2, 3, 4, 5, 6, 3} {
		for ; loads > 0; loads-- {
			addrs = append(addrs, a)
		}
	}
	for a := 0; a < 8; a++ {
		code = append(code, Instr{Op: OpLEA, Rd: 8 + a, Imm: int64(a)})
	}
	for j, a := range addrs {
		code = append(code, Instr{Op: OpLdA, Rd: 16 + j, Rs: 8 + a})
	}
	code = append(code, Instr{Op: OpSt, Rd: 5, Rs: 0})
	for j, a := range addrs {
		for range 3 {
			code = append(code, Instr{Op: OpLdC, Rd: 16 + j, Rs: 8 + a})
		}
	}
	code = append(code,
		Instr{Op: OpAdd, Rd: 0, Rs: 0, Rt: 2}, // i++
		Instr{Op: OpBr, Target: 4},
		Instr{Op: OpRet, Rs: 0},
	)
	code[5].Target = len(code) - 1
	return buildProg(code, 40, 8)
}

// latJoinProg alternates two paths of equal shape back to the loop
// head, whose first instruction reads r6: even iterations write r10 and
// r6 with fmuls, odd ones r10 with an fdiv and r6 with an integer
// divide, and only the exit reads r10. Under FPArithLat 2^32 and
// IntDivLat = FPDivLat = 2^33 the loop head sees both registers'
// distances to ready differ by exactly 2^32 between the paths, which a
// key keeping fewer bits would confuse. Under short FPArithLat and
// IntDivLat the even path overwrites an fdiv still in flight, which a
// replayed block must retire before the exit reads r10.
func latJoinProg() *Program {
	return buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0}, // i
		{Op: OpMovI, Rd: 1, Imm: 7}, // n
		{Op: OpMovI, Rd: 2, Imm: 1},
		{Op: OpMovI, Rd: 3, Imm: 3},
		{Op: OpI2F, Rd: 4, Rs: 2},
		{Op: OpI2F, Rd: 5, Rs: 3},
		{Op: OpFAdd, Rd: 9, Rs: 6, Rt: 6}, // 6 L: waits for r6
		{Op: OpSub, Rd: 7, Rs: 0, Rt: 1},  // i-n
		{Op: OpBeqz, Rs: 7, Target: 18},
		{Op: OpAnd, Rd: 8, Rs: 0, Rt: 2}, // i & 1
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 2}, // i++
		{Op: OpBnez, Rs: 8, Target: 15},
		{Op: OpFMul, Rd: 10, Rs: 4, Rt: 5},
		{Op: OpFMul, Rd: 6, Rs: 4, Rt: 5},
		{Op: OpBr, Target: 6},
		{Op: OpFDiv, Rd: 10, Rs: 4, Rt: 5}, // 15
		{Op: OpDiv, Rd: 6, Rs: 2, Rt: 3},
		{Op: OpBr, Target: 6},
		{Op: OpFAdd, Rd: 11, Rs: 10, Rt: 10}, // 18
		{Op: OpRet, Rs: 11},
	}, 12, 4)
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
