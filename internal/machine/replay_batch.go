package machine

import (
	"fmt"
	"slices"
)

// ReplayBatch re-times one recorded trace under every Config in cfgs,
// returning results index-aligned with cfgs. It is the machine's only
// timing entry point: Run and Replay are one-lane calls of it. Every
// config must fit the trace (see Trace.fits); one that does not aborts
// the whole batch with a wrapped ErrTraceMismatch.
//
// Every Counters field except Cycles is a function of the recorded class
// counts and the capacity-determined check outcomes, so replaySerial
// computes all of them for every lane — and the serial lanes' cycles in
// closed form — from the per-capacity ALAT walk memoized on the trace
// (alatWalk, which also records each check's outcome in a miss
// bitstream). The pipelined lanes share ONE walk over the trace
// (batchWalk), which computes only clocks, and that walk advances one
// scoreboard lane per DISTINCT pipelined clock (planLanes): the walk
// reads a config only through its timing fields and its capacity's miss
// stream, so configs that agree on both end on the same clock. Capacities
// whose miss streams are bit-identical share a stream, which is the
// common case on a capacity sweep — on the standard grid the paper
// kernels' 12 pipelined configs walk as 3 to 9 lanes.
func ReplayBatch(prog *Program, t *Trace, cfgs []Config) ([]*Result, error) {
	results, _, err := replayBatch(prog, t, cfgs)
	return results, err
}

// walkStats reports how a batch's pipelined walk ran: the scoreboard
// lanes it advanced, the block transitions its memo held at the end and
// the block entries it resolved by a keyed lookup rather than a link
// (both 0 when the memo gave up), and the block entries it resolved by
// skipping a cycle's repeats.
type walkStats struct{ lanes, transitions, keyed, skipped int }

// replayBatch is ReplayBatch that also reports how its pipelined walk
// ran.
func replayBatch(prog *Program, t *Trace, cfgs []Config) ([]*Result, walkStats, error) {
	results := make([]*Result, len(cfgs))
	var piped []Config // normalized pipelined configs, in input order
	var pipedIdx []int
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if err := t.fits(cfg); err != nil {
			return nil, walkStats{}, err
		}
		results[i] = &Result{Ret: t.Ret, Output: t.Output, Counters: replaySerial(t, cfg), PerFunc: t.perFuncAt(cfg.ALATSize)}
		if cfg.Pipelined {
			piped = append(piped, cfg)
			pipedIdx = append(pipedIdx, i)
		}
	}
	if len(piped) == 0 {
		return results, walkStats{}, nil
	}
	plan := planLanes(t, piped)
	w, err := batchWalk(prog, t, plan)
	if err != nil {
		return nil, walkStats{}, err
	}
	for j, i := range pipedIdx {
		results[i].Counters.Cycles = w.clocks[plan.laneOf[j]]
	}
	stats := walkStats{lanes: len(plan.lanes), skipped: int(w.cyc.skipped)}
	if !w.memo.off {
		stats.transitions, stats.keyed = w.memo.count, w.memo.keyed
	}
	return results, stats, nil
}

// lanePlan is the set of distinct scoreboard lanes one pipelined batch
// walks. The walk reads a lane's config in exactly two ways: its timing
// fields (every latency, penalty and overhead) and, at each check, the
// hit/miss outcome of its ALAT capacity. Two configs that agree on both
// start from the same state (all clocks and ready times zero) and apply
// the same update at every step, so they end on the same clock; the plan
// walks one lane for them and copies the clock back to each.
type lanePlan struct {
	lanes   []Config   // one per distinct lane: the first config on it
	streams [][]uint64 // distinct per-check miss bitstreams
	stream  []int      // lane -> index into streams
	laneOf  []int      // input config -> lane
}

// laneKey identifies a distinct lane: the config with every field the
// walk does not read cleared, plus its miss stream. Clearing names the
// unread fields rather than copying the read ones, so a timing field
// added to Config later is part of the key and never merged by mistake.
type laneKey struct {
	timing Config
	stream int
}

// planLanes collapses cfgs (pipelined, normalized, fitting t) into their
// distinct lanes. Capacities are first deduplicated by miss stream: the
// memoized summary of each distinct ALATSize is compared bit for bit
// (O(checks/64)) with the streams already kept, because many capacities
// of a sweep produce exactly the same outcomes — eviction counts may
// differ, but those come from each config's own summary in replaySerial,
// never from the walk.
func planLanes(t *Trace, cfgs []Config) *lanePlan {
	p := &lanePlan{laneOf: make([]int, len(cfgs))}
	bySize := map[int]int{} // ALATSize -> stream index
	byKey := map[laneKey]int{}
	for j, cfg := range cfgs {
		si, ok := bySize[cfg.ALATSize]
		if !ok {
			// memoized on the trace: a sweep's serial half (or a prior
			// batch) has usually already paid for this walk
			bits := t.alatWalk(cfg.ALATSize).missBits
			si = slices.IndexFunc(p.streams, func(s []uint64) bool { return slices.Equal(s, bits) })
			if si < 0 {
				si = len(p.streams)
				p.streams = append(p.streams, bits)
			}
			bySize[cfg.ALATSize] = si
		}
		timing := cfg
		timing.ALATSize, timing.MaxSteps, timing.MaxCallDepth, timing.StackSlots = 0, 0, 0, 0
		key := laneKey{timing, si}
		li, ok := byKey[key]
		if !ok {
			li = len(p.lanes)
			byKey[key] = li
			p.lanes = append(p.lanes, cfg)
			p.stream = append(p.stream, si)
		}
		p.laneOf[j] = li
	}
	return p
}

// batchFrame is one activation on the batched walker's call stack. The
// scoreboard holds K lanes per register, register-major: lane k of
// register r is ready[r*K+k], so the inner per-lane loop of one
// register walks contiguous memory.
type batchFrame struct {
	f     *FuncCode
	pc    int
	ready []int64

	blocks []memoBlock // the memo's blocks of f; nil once it is off
	live   []int       // registers that may be in flight, ascending
}

// Latency classes: indexes of the walker's per-lane latency tables.
const (
	latUnit = iota // the default class
	latIntMul
	latIntDiv
	latFPArith
	latFPDiv
	latIntLoad
	latFPLoad
	latStore
	latFence
	numLatClasses
)

// batchWalker carries the shared cursors and the per-lane timing state
// of one batched pipelined walk.
type batchWalker struct {
	prog *Program
	bits bitReader
	k    int // number of lanes

	// per-lane tables, precomputed from the lanes' configs
	lat       [numLatClasses][]int64
	checkHit  []int64    // a check that hits
	checkMiss [2][]int64 // a check that misses: reload plus penalty; [1] is FP
	latCheck  []int64    // scratch: per-lane check latency, filled per event
	callOv    []int64

	// ALAT outcomes: one memoized miss bitstream per distinct stream.
	// The walk never simulates a table — it reads each check's
	// precomputed outcome at the shared check ordinal.
	streams  [][]uint64
	stream   []int  // lane -> index into streams
	hit      []bool // scratch: per-stream outcome of one check
	checkOrd int64  // ordinal of the next check event
	nChecks  int64  // total recorded check events
	nBits    int64  // total recorded branch and speculative-load bits

	clocks []int64 // per-lane pipeline clock
	issue  []int64 // scratch: per-lane issue time of the current instruction

	frames   []batchFrame
	boards   [][]int64 // one scoreboard per call depth, reused across calls
	maxDepth int       // the recorded run's deepest nesting

	memo blockMemo
	cyc  cycleState
}

// batchWalk runs the shared pipelined walk over plan's lanes and returns
// the finished walker, holding the final per-lane clocks. The walk
// retires exactly t.Steps instructions within t.MaxDepth nested calls,
// reading every recorded branch bit and check event, on a well-formed
// trace; any other count is a corrupt trace, which these checks turn
// into an error instead of a silently wrong result (and which bounds
// the walk).
func batchWalk(prog *Program, t *Trace, plan *lanePlan) (*batchWalker, error) {
	k := len(plan.lanes)
	w := &batchWalker{
		prog:     prog,
		bits:     bitReader{t: &t.bits},
		k:        k,
		checkHit: make([]int64, k),
		latCheck: make([]int64, k),
		callOv:   make([]int64, k),
		streams:  plan.streams,
		stream:   plan.stream,
		hit:      make([]bool, len(plan.streams)),
		nChecks:  t.counts[cCheckInt] + t.counts[cCheckFP],
		nBits:    t.bits.n,
		clocks:   make([]int64, k),
		issue:    make([]int64, k),
		maxDepth: t.MaxDepth,
		memo:     blockMemo{blocks: map[*FuncCode][]memoBlock{}, clock0: make([]int64, k)},
	}
	for c := range w.lat {
		w.lat[c] = make([]int64, k)
	}
	for fp := range w.checkMiss {
		w.checkMiss[fp] = make([]int64, k)
	}
	for i, cfg := range plan.lanes {
		w.lat[latUnit][i] = 1
		w.lat[latIntMul][i] = int64(cfg.IntMulLat)
		w.lat[latIntDiv][i] = int64(cfg.IntDivLat)
		w.lat[latFPArith][i] = int64(cfg.FPArithLat)
		w.lat[latFPDiv][i] = int64(cfg.FPDivLat)
		w.lat[latIntLoad][i] = int64(cfg.IntLoadLat)
		w.lat[latFPLoad][i] = int64(cfg.FPLoadLat)
		w.lat[latStore][i] = int64(cfg.StoreLat)
		w.lat[latFence][i] = int64(cfg.FenceLat)
		w.checkHit[i] = int64(cfg.CheckHitLat)
		w.checkMiss[0][i] = int64(cfg.IntLoadLat + cfg.CheckMissPen)
		w.checkMiss[1][i] = int64(cfg.FPLoadLat + cfg.CheckMissPen)
		w.callOv[i] = int64(cfg.CallOverhead)
	}
	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, fmt.Errorf("machine: no main function")
	}
	if err := w.push(mainFn); err != nil {
		return nil, err
	}
	steps, err := w.walk(t.Steps)
	if err != nil {
		return nil, err
	}
	if steps != t.Steps {
		return nil, corruptTrace("replay retired %d steps, trace records %d", steps, t.Steps)
	}
	if w.bits.pos != w.nBits || w.checkOrd != w.nChecks {
		return nil, corruptTrace("replay read %d branch bits and %d checks, trace records %d and %d", w.bits.pos, w.checkOrd, w.nBits, w.nChecks)
	}
	return w, nil
}

// push enters an activation in every lane at once: each lane charges
// its own call overhead and initializes its scoreboard lanes to its own
// clock, in the scoreboard kept for the new depth.
func (w *batchWalker) push(f *FuncCode) error {
	depth := len(w.frames)
	if depth >= w.maxDepth {
		return corruptTrace("replay exceeds the recorded call depth %d", w.maxDepth)
	}
	fr := batchFrame{f: f}
	k := w.k
	for i := 0; i < k; i++ {
		w.clocks[i] += w.callOv[i]
	}
	if depth == len(w.boards) {
		w.boards = append(w.boards, nil)
	}
	if cap(w.boards[depth]) < f.NumRegs*k {
		w.boards[depth] = make([]int64, f.NumRegs*k)
	}
	fr.ready = w.boards[depth][:f.NumRegs*k]
	for r := 0; r < f.NumRegs; r++ {
		copy(fr.ready[r*k:(r+1)*k], w.clocks)
	}
	if !w.memo.off {
		if fr.blocks = w.memo.blocks[f]; fr.blocks == nil {
			fr.blocks = make([]memoBlock, len(f.Instrs))
			w.memo.blocks[f] = fr.blocks
		}
	}
	w.frames = append(w.frames, fr)
	return nil
}

// Fused shapes: the instructions the walk retires in one pass over the
// lanes, by their number of source registers. Every fused shape writes
// a destination register.
const (
	shapeGeneral = iota // the general path: issueAt, then retirement
	shapeSrc0           // rd <- imm
	shapeSrc1           // rd <- f(rs)
	shapeSrc2           // rd <- f(rs, rt)
)

// fusedOp is an opcode's fused shape and latency class.
type fusedOp struct{ shape, lat uint8 }

// fusedOps classifies the opcodes the walk fuses; every other opcode
// (the zero value, or past the end) takes the general path. Advanced
// loads' ALAT inserts are part of the memoized event walk, so the walk
// charges them only the load latency.
var fusedOps = [...]fusedOp{
	OpMovI: {shapeSrc0, latUnit},
	OpLEA:  {shapeSrc0, latUnit},

	OpMov:   {shapeSrc1, latUnit},
	OpNeg:   {shapeSrc1, latUnit},
	OpNot:   {shapeSrc1, latUnit},
	OpI2F:   {shapeSrc1, latUnit},
	OpF2I:   {shapeSrc1, latUnit},
	OpAlloc: {shapeSrc1, latUnit},
	OpFNeg:  {shapeSrc1, latFPArith},
	OpLd:    {shapeSrc1, latIntLoad},
	OpLdA:   {shapeSrc1, latIntLoad},
	OpLdF:   {shapeSrc1, latFPLoad},
	OpLdFA:  {shapeSrc1, latFPLoad},

	OpAdd:    {shapeSrc2, latUnit},
	OpSub:    {shapeSrc2, latUnit},
	OpAnd:    {shapeSrc2, latUnit},
	OpOr:     {shapeSrc2, latUnit},
	OpXor:    {shapeSrc2, latUnit},
	OpShl:    {shapeSrc2, latUnit},
	OpShr:    {shapeSrc2, latUnit},
	OpMul:    {shapeSrc2, latIntMul},
	OpDiv:    {shapeSrc2, latIntDiv},
	OpMod:    {shapeSrc2, latIntDiv},
	OpFAdd:   {shapeSrc2, latFPArith},
	OpFSub:   {shapeSrc2, latFPArith},
	OpFMul:   {shapeSrc2, latFPArith},
	OpFDiv:   {shapeSrc2, latFPDiv},
	OpCmpEQ:  {shapeSrc2, latUnit},
	OpCmpNE:  {shapeSrc2, latUnit},
	OpCmpLT:  {shapeSrc2, latUnit},
	OpCmpLE:  {shapeSrc2, latUnit},
	OpCmpGT:  {shapeSrc2, latUnit},
	OpCmpGE:  {shapeSrc2, latUnit},
	OpFCmpEQ: {shapeSrc2, latUnit},
	OpFCmpNE: {shapeSrc2, latUnit},
	OpFCmpLT: {shapeSrc2, latUnit},
	OpFCmpLE: {shapeSrc2, latUnit},
	OpFCmpGT: {shapeSrc2, latUnit},
	OpFCmpGE: {shapeSrc2, latUnit},
}

// issueAt fills w.issue with the per-lane issue time of an instruction
// on the general path: the lane's clock maxed with the lane's ready
// times of the instruction's source registers (a fence waits on every
// register: a scoreboard drain). The opcode switch runs once and the
// per-lane loops walk contiguous scoreboard lanes.
func (w *batchWalker) issueAt(ins *Instr, ready []int64) {
	k := w.k
	issue := w.issue
	copy(issue, w.clocks)
	maxReg := func(reg int) {
		lanes := ready[reg*k : (reg+1)*k]
		for i, v := range lanes {
			if v > issue[i] {
				issue[i] = v
			}
		}
	}
	switch ins.Op {
	case OpNop, OpHalt, OpBr:
	case OpFence:
		// scoreboard drain: every register's lanes gate the issue time
		for reg := 0; reg < len(ready)/k; reg++ {
			maxReg(reg)
		}
	case OpSt, OpStF:
		maxReg(ins.Rd) // address
		maxReg(ins.Rs) // value
	case OpLdC, OpLdFC:
		maxReg(ins.Rs) // address
		maxReg(ins.Rd) // value being validated
	case OpCall, OpPrint:
		for _, reg := range ins.ArgRegs {
			maxReg(reg)
		}
	case OpBeqz, OpBnez, OpArg, OpRet:
		if ins.Rs >= 0 {
			maxReg(ins.Rs)
		}
	case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
		maxReg(ins.Rs)
	default: // any other opcode: the three-register shape
		maxReg(ins.Rs)
		maxReg(ins.Rt)
	}
}

func (w *batchWalker) nextBit() (int, error) {
	bit, ok := w.bits.next()
	if !ok {
		return 0, errTraceUnderrun
	}
	return bit, nil
}

// nextCheck returns the per-stream hit/miss outcomes of the next check
// event in w.hit, reading the memoized miss bitstreams at the shared
// check ordinal. Checks occur in the same program order in the
// instruction walk and in the recorded event stream, so one ordinal
// serves every capacity.
func (w *batchWalker) nextCheck() error {
	ord := w.checkOrd
	if ord >= w.nChecks {
		return errTraceUnderrun
	}
	w.checkOrd++
	for si, bits := range w.streams {
		w.hit[si] = bits[ord>>6]&(1<<uint(ord&63)) == 0
	}
	return nil
}

// walk is the shared instruction walk. It follows the functional
// engine's control flow through the recorded branch bits, one basic
// block at a time: a block the memo has seen from the same state
// replays in one step (memo.go), any other is walked an instruction at
// a time (stepBlock) and recorded. A replayed block is found by
// following the link from the transition before it, or by a keyed
// lookup where no link leads (a chain start); between the two the
// scoreboard lags behind the clocks, and settle brings it up to date
// before anything reads it. Where a backward branch leads the chain
// back to a loop head, the loop's repeats are skipped (cycle.go). It
// returns the number of instructions it retired, stopping with an error
// past maxSteps. The differential tests pin it against the test-only
// oracle (internal/machine/oracle).
//
// The pipelined model: one instruction issues per cycle, once its
// source registers are ready; its result is ready lat cycles after
// issue. A call charges CallOverhead and starts the callee with every
// register ready; the call's result is ready when the callee returns.
// Branches, calls and returns take one issue slot; halt takes none.
func (w *batchWalker) walk(maxSteps int64) (int64, error) {
	k := w.k
	clocks := w.clocks
	// the current activation, cached in locals; written back to its
	// frame on a call and reloaded on a return
	fr := &w.frames[len(w.frames)-1]
	f, ready, pc := fr.f, fr.ready, fr.pc
	var steps int64
	// last is the transition that brought the walk to pc, and dir the
	// way its terminator went; nil where no link can lead on. The
	// scoreboard may lag behind last.
	var last *transition
	dir := 0
	// back is whether that terminator branched to a pc at or before its
	// own; entries counts the block entries, skipped ones included
	back := false
	var entries int64
	for {
		// a chained hit: the link from last that matches the block's
		// check outcomes and fits the trace
		var hit *transition
		if last != nil && !w.memo.off {
			if succ := last.next[dir]; len(succ) > 0 && succ[0].fits(w, steps, maxSteps) {
				if hit = succ[0]; hit.checks > 0 {
					hit = w.memo.pick(w, succ)
				}
			}
		}
		if hit != nil {
			// a backward link may close a cycle: unless held off, skip
			// its repeats and pick the link from last again
			if back && steps >= hit.hold {
				if n, e := w.skipCycle(hit, steps, maxSteps, entries); n > 0 {
					steps += n
					entries += e
					continue
				}
			}
			last = hit
		} else {
			// a chain start: settle the scoreboard, then look the block
			// up by its full key or walk and record it, and link it
			if last != nil {
				w.settle(fr, last)
			}
			w.cyc.base = steps
			blk, t := w.memo.enter(w, fr, pc, steps, maxSteps)
			if hit = t; t == nil {
				var err error
				if pc, steps, err = w.stepBlock(f, ready, pc, steps, maxSteps); err != nil {
					return 0, err
				}
				if blk != nil {
					t = w.memo.record(w, fr, blk)
				}
			}
			w.memo.link(last, dir, t)
			last = t
		}
		if hit != nil {
			steps += hit.n
			w.bits.pos += hit.skip
			w.checkOrd += hit.checks
			for i, d := range hit.dclock[:len(clocks)] {
				clocks[i] += d
			}
			pc += int(hit.n) - 1
		}
		entries++
		// the terminator's control transfer; its issue slot is taken
		switch ins := &f.Instrs[pc]; ins.Op {
		case OpBr, OpBeqz, OpBnez:
			// branch, inlined into the walk's hottest path and keeping
			// the direction (an unconditional branch is taken); the pc
			// is picked without a branch on dir
			dir = 1
			if ins.Op != OpBr {
				var ok bool
				if dir, ok = w.bits.next(); !ok {
					return 0, errTraceUnderrun
				}
			}
			next := [2]int{pc + 1, ins.Target}[dir&1]
			back, pc = next <= pc, next

		case OpCall:
			callee, ok := w.prog.Funcs[ins.Fn]
			if !ok {
				return 0, fmt.Errorf("machine: call to unknown function %q", ins.Fn)
			}
			if last != nil {
				w.settle(fr, last)
				last = nil
			}
			fr.pc = pc + 1 // resume point after the callee returns
			if err := w.push(callee); err != nil {
				return 0, err
			}
			fr = &w.frames[len(w.frames)-1]
			f, ready, pc = fr.f, fr.ready, fr.pc

		default: // OpRet, OpHalt: the frame's scoreboard is dropped
			last = nil
			w.frames = w.frames[:len(w.frames)-1]
			if len(w.frames) == 0 {
				return steps, nil
			}
			fr = &w.frames[len(w.frames)-1]
			f, ready, pc = fr.f, fr.ready, fr.pc
			// pc was advanced past the caller's call instruction
			callIns := &f.Instrs[pc-1]
			if callIns.Rd >= 0 {
				copy(ready[callIns.Rd*k:(callIns.Rd+1)*k], clocks)
			}
		}
	}
}

// branch returns the pc the branch ins at pc transfers to, reading a
// conditional branch's recorded bit; ok is false when the trace has no
// bit left.
func (w *batchWalker) branch(ins *Instr, pc int) (next int, ok bool) {
	if ins.Op == OpBr {
		return ins.Target, true
	}
	taken, ok := w.bits.next()
	return [2]int{pc + 1, ins.Target}[taken&1], ok
}

// stepBlock walks the block at pc one instruction at a time: one opcode
// dispatch, one branch-bit/ALAT-event consumption, then per-lane inner
// loops that advance each lane's clock and scoreboard. The dominant
// shapes (two-source ALU ops, one-source moves and conversions, plain
// and advanced loads) retire in one fused pass over the lanes; every
// other instruction takes the general path — issueAt, then a retirement
// pass. It stops at the block's terminator once the terminator has
// issued, returning its pc; the caller transfers control. Once the memo
// is off it follows branches itself and stops only at calls, returns
// and halts.
func (w *batchWalker) stepBlock(f *FuncCode, ready []int64, pc int, steps, maxSteps int64) (int, int64, error) {
	k := w.k
	clocks := w.clocks
	issue := w.issue
	for {
		steps++
		if steps > maxSteps {
			return 0, 0, corruptTrace("replay exceeds the recorded %d steps", maxSteps)
		}
		if pc < 0 || pc >= len(f.Instrs) {
			return 0, 0, fmt.Errorf("machine: pc out of range in %s", f.Name)
		}
		ins := &f.Instrs[pc]
		var fo fusedOp
		if uint(ins.Op) < uint(len(fusedOps)) {
			fo = fusedOps[ins.Op]
		}
		if fo.shape != shapeGeneral {
			// the fused pass: issue at the lane's clock maxed with its
			// sources' ready times, publish the destination lat cycles
			// later, and let the next instruction issue one cycle later
			lats := w.lat[fo.lat][:len(clocks)]
			dst := ready[ins.Rd*k : ins.Rd*k+k][:len(clocks)]
			switch fo.shape {
			case shapeSrc0:
				for i, x := range clocks {
					dst[i] = x + lats[i]
					clocks[i] = x + 1
				}
			case shapeSrc1:
				a := ready[ins.Rs*k : ins.Rs*k+k][:len(clocks)]
				for i, c := range clocks {
					x := max(c, a[i])
					dst[i] = x + lats[i]
					clocks[i] = x + 1
				}
			default:
				a := ready[ins.Rs*k : ins.Rs*k+k][:len(clocks)]
				b := ready[ins.Rt*k : ins.Rt*k+k][:len(clocks)]
				for i, c := range clocks {
					x := max(c, a[i], b[i])
					dst[i] = x + lats[i]
					clocks[i] = x + 1
				}
			}
			pc++
			continue
		}
		w.issueAt(ins, ready)
		lats := w.lat[latUnit]
		switch ins.Op {
		case OpFence:
			lats = w.lat[latFence]

		case OpLdC, OpLdFC:
			if err := w.nextCheck(); err != nil {
				return 0, 0, err
			}
			miss := w.checkMiss[0]
			if ins.Op == OpLdFC {
				miss = w.checkMiss[1]
			}
			for i := 0; i < k; i++ {
				if w.hit[w.stream[i]] {
					w.latCheck[i] = w.checkHit[i]
				} else {
					w.latCheck[i] = miss[i]
				}
			}
			lats = w.latCheck

		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			// the deferred bit must still be consumed to keep the shared
			// bit cursor aligned with branch directions; the ALAT insert
			// it gates lives in the memoized event walk
			if _, err := w.nextBit(); err != nil {
				return 0, 0, err
			}
			if ins.Op == OpLdFS || ins.Op == OpLdFSA {
				lats = w.lat[latFPLoad]
			} else {
				lats = w.lat[latIntLoad]
			}

		case OpSt, OpStF:
			lats = w.lat[latStore]

		case OpHalt:
			return pc, steps, nil

		case OpBr, OpBeqz, OpBnez, OpCall, OpRet:
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
			if !w.memo.off || ins.Op == OpCall || ins.Op == OpRet {
				return pc, steps, nil
			}
			// with the memo off no block boundary matters: branch here
			var ok bool
			if pc, ok = w.branch(ins, pc); !ok {
				return 0, 0, errTraceUnderrun
			}
			continue
		}
		// common retirement: advance each lane's clock and publish the
		// destination's ready time
		if d := instrDst(ins); d >= 0 {
			lanes := ready[d*k : (d+1)*k]
			for i := 0; i < k; i++ {
				lanes[i] = issue[i] + lats[i]
				clocks[i] = issue[i] + 1
			}
		} else {
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
		}
		pc++
	}
}

// instrDst returns the destination register of an instruction, or -1.
func instrDst(ins *Instr) int {
	switch ins.Op {
	case OpSt, OpStF, OpBr, OpBeqz, OpBnez, OpRet, OpPrint, OpHalt, OpNop, OpCall, OpFence:
		return -1
	}
	return ins.Rd
}
