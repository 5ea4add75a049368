package machine

import (
	"fmt"
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
// closed form. The pipelined lanes share ONE walk over the trace
// (batchWalk), so a K-point grid pays for one instruction walk instead
// of K; the walk computes only the per-lane clocks.
//
// The batched walk keeps K scoreboards in struct-of-arrays layout — one
// ready-time lane per config per register, one clock per config — and
// advances all of them from a single shared instruction/branch-bit
// cursor. ALAT outcomes are deduplicated by capacity: table contents
// after any event prefix are a pure function of (event stream,
// capacity), so one event walk per DISTINCT ALATSize serves every
// config of that size — configs with different ALAT sizes cannot share
// one, since different capacities evict different entries. Those walks
// are the per-capacity walks replaySerial memoizes on the trace (with a
// per-check miss bitstream), so the instruction walk simulates no tables
// at all: each check event reads its precomputed outcome at a shared
// ordinal.
func ReplayBatch(prog *Program, t *Trace, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	var piped []Config // normalized pipelined configs, in lane order
	var pipedIdx []int
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if err := t.fits(cfg); err != nil {
			return nil, err
		}
		results[i] = &Result{Ret: t.Ret, Output: t.Output, Counters: replaySerial(t, cfg), PerFunc: t.perFuncAt(cfg.ALATSize)}
		if cfg.Pipelined {
			piped = append(piped, cfg)
			pipedIdx = append(pipedIdx, i)
		}
	}
	if len(piped) == 0 {
		return results, nil
	}
	clocks, err := batchWalk(prog, t, piped)
	if err != nil {
		return nil, err
	}
	for j, i := range pipedIdx {
		results[i].Counters.Cycles = clocks[j]
	}
	return results, nil
}

// batchFrame is one activation on the batched walker's call stack. The
// scoreboard holds K lanes per register, register-major: lane k of
// register r is ready[r*K+k], so the inner per-config loop of one
// register walks contiguous memory.
type batchFrame struct {
	f     *FuncCode
	pc    int
	ready []int64
}

// batchWalker carries the shared cursors and the per-config timing
// lanes of one batched pipelined walk.
type batchWalker struct {
	prog *Program
	bits bitReader
	k    int // number of configs (lanes)

	// per-lane latency tables, precomputed from the configs
	latUnit    []int64 // all ones; the default class
	latIntMul  []int64
	latIntDiv  []int64
	latFPArith []int64
	latFPDiv   []int64
	latIntLoad []int64
	latFPLoad  []int64
	latCheck   []int64 // scratch: per-lane check latency, filled per event
	latStore   []int64
	latFence   []int64
	callOv     []int64

	// ALAT outcomes, deduplicated by capacity: one memoized summary
	// (with its per-check miss bitstream) per distinct ALATSize. The
	// walk never simulates a table — it reads each check's precomputed
	// outcome at the shared check ordinal.
	sums     []alatSummary
	cfgAlat  []int  // lane -> index into sums
	hit      []bool // scratch: per-distinct-size outcome of one check
	checkOrd int64  // ordinal of the next check event
	nChecks  int64  // total recorded check events

	clocks []int64 // per-lane pipeline clock
	issue  []int64 // scratch: per-lane issue time of the current instruction

	frames   []batchFrame
	maxDepth int // the recorded run's deepest nesting
}

// batchWalk runs the shared pipelined walk for cfgs (all pipelined, all
// fitting the trace) and returns the final per-config clocks. The walk
// retires exactly t.Steps instructions within t.MaxDepth nested calls
// on a well-formed trace; any other count is a corrupt trace, which this
// check turns into an error instead of a silently wrong result (and
// which bounds the walk).
func batchWalk(prog *Program, t *Trace, cfgs []Config) ([]int64, error) {
	k := len(cfgs)
	w := &batchWalker{
		prog: prog,
		bits: bitReader{t: &t.bits},
		k:    k,

		latUnit:    make([]int64, k),
		latIntMul:  make([]int64, k),
		latIntDiv:  make([]int64, k),
		latFPArith: make([]int64, k),
		latFPDiv:   make([]int64, k),
		latIntLoad: make([]int64, k),
		latFPLoad:  make([]int64, k),
		latCheck:   make([]int64, k),
		latStore:   make([]int64, k),
		latFence:   make([]int64, k),
		callOv:     make([]int64, k),

		cfgAlat: make([]int, k),
		clocks:  make([]int64, k),
		issue:   make([]int64, k),
	}
	sizeIdx := map[int]int{}
	for i, cfg := range cfgs {
		w.latUnit[i] = 1
		w.latIntMul[i] = int64(cfg.IntMulLat)
		w.latIntDiv[i] = int64(cfg.IntDivLat)
		w.latFPArith[i] = int64(cfg.FPArithLat)
		w.latFPDiv[i] = int64(cfg.FPDivLat)
		w.latIntLoad[i] = int64(cfg.IntLoadLat)
		w.latFPLoad[i] = int64(cfg.FPLoadLat)
		w.latStore[i] = int64(cfg.StoreLat)
		w.latFence[i] = int64(cfg.FenceLat)
		w.callOv[i] = int64(cfg.CallOverhead)
		si, ok := sizeIdx[cfg.ALATSize]
		if !ok {
			si = len(w.sums)
			sizeIdx[cfg.ALATSize] = si
			// memoized on the trace: a sweep's serial half (or a prior
			// batch) has usually already paid for this walk
			w.sums = append(w.sums, t.alatWalk(cfg.ALATSize))
		}
		w.cfgAlat[i] = si
	}
	w.hit = make([]bool, len(w.sums))
	w.nChecks = t.counts[cCheckInt] + t.counts[cCheckFP]
	w.maxDepth = t.MaxDepth
	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, fmt.Errorf("machine: no main function")
	}
	if err := w.push(mainFn); err != nil {
		return nil, err
	}
	steps, err := w.walk(cfgs, t.Steps)
	if err != nil {
		return nil, err
	}
	if steps != t.Steps {
		return nil, corruptTrace("replay retired %d steps, trace records %d", steps, t.Steps)
	}
	return w.clocks, nil
}

// push enters an activation in every lane at once: each lane charges
// its own call overhead and initializes its scoreboard lanes to its own
// clock.
func (w *batchWalker) push(f *FuncCode) error {
	if len(w.frames) >= w.maxDepth {
		return corruptTrace("replay exceeds the recorded call depth %d", w.maxDepth)
	}
	fr := batchFrame{f: f}
	k := w.k
	for i := 0; i < k; i++ {
		w.clocks[i] += w.callOv[i]
	}
	fr.ready = make([]int64, f.NumRegs*k)
	for r := 0; r < f.NumRegs; r++ {
		copy(fr.ready[r*k:(r+1)*k], w.clocks)
	}
	w.frames = append(w.frames, fr)
	return nil
}

// issueAt fills w.issue with the per-lane issue time of ins: the
// lane's clock maxed with the lane's ready times of the instruction's
// source registers (a fence waits on every register: a scoreboard
// drain). The opcode switch runs once and the per-lane loops walk
// contiguous scoreboard lanes.
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
	case OpMovI, OpLEA, OpNop, OpHalt, OpBr:
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
	case OpMov, OpNeg, OpNot, OpI2F, OpF2I, OpFNeg,
		OpLd, OpLdF, OpLdA, OpLdFA, OpLdS, OpLdFS, OpLdSA, OpLdFSA, OpAlloc:
		maxReg(ins.Rs)
	default: // three-register ALU
		maxReg(ins.Rs)
		maxReg(ins.Rt)
	}
}

func (w *batchWalker) nextBit() (bool, error) {
	bit, ok := w.bits.next()
	if !ok {
		return false, errTraceUnderrun
	}
	return bit, nil
}

// nextCheck returns the per-distinct-size hit/miss outcomes of the next
// check event in w.hit, reading the memoized miss bitstreams at the
// shared check ordinal. Checks occur in the same program order in the
// instruction walk and in the recorded event stream, so one ordinal
// serves every capacity.
func (w *batchWalker) nextCheck() error {
	ord := w.checkOrd
	if ord >= w.nChecks {
		return errTraceUnderrun
	}
	w.checkOrd++
	for si := range w.sums {
		w.hit[si] = !w.sums[si].miss(ord)
	}
	return nil
}

// walk is the shared instruction walk: one opcode dispatch, one
// branch-bit/ALAT-event consumption, then a per-lane inner loop that
// advances each config's clock and scoreboard. It follows the
// functional engine's control flow through the recorded branch bits and
// returns the number of instructions it retired, stopping with an error
// past maxSteps. The differential tests pin it against the test-only
// oracle (internal/machine/oracle).
//
// The pipelined model: one instruction issues per cycle, once its
// source registers are ready; its result is ready lat cycles after
// issue. A call charges CallOverhead and starts the callee with every
// register ready; the call's result is ready when the callee returns.
// Branches, calls and returns take one issue slot; halt takes none.
func (w *batchWalker) walk(cfgs []Config, maxSteps int64) (int64, error) {
	k := w.k
	clocks := w.clocks
	issue := w.issue
	var steps int64
	for {
		fr := &w.frames[len(w.frames)-1]
		f := fr.f
		steps++
		if steps > maxSteps {
			return 0, corruptTrace("replay exceeds the recorded %d steps", maxSteps)
		}
		if fr.pc < 0 || fr.pc >= len(f.Instrs) {
			return 0, fmt.Errorf("machine: pc out of range in %s", f.Name)
		}
		ins := &f.Instrs[fr.pc]
		w.issueAt(ins, fr.ready)
		lats := w.latUnit
		switch ins.Op {
		case OpMul:
			lats = w.latIntMul
		case OpDiv, OpMod:
			lats = w.latIntDiv
		case OpFAdd, OpFSub, OpFMul, OpFNeg:
			lats = w.latFPArith
		case OpFDiv:
			lats = w.latFPDiv
		case OpFence:
			lats = w.latFence

		case OpLd, OpLdF, OpLdA, OpLdFA:
			// advanced-load ALAT inserts are part of the memoized event
			// walk; the batched walk charges only the load latency
			if ins.Op == OpLdF || ins.Op == OpLdFA {
				lats = w.latFPLoad
			} else {
				lats = w.latIntLoad
			}

		case OpLdC, OpLdFC:
			if err := w.nextCheck(); err != nil {
				return 0, err
			}
			loadLat := w.latIntLoad
			if ins.Op == OpLdFC {
				loadLat = w.latFPLoad
			}
			for i := 0; i < k; i++ {
				if w.hit[w.cfgAlat[i]] {
					w.latCheck[i] = int64(cfgs[i].CheckHitLat)
				} else {
					w.latCheck[i] = loadLat[i] + int64(cfgs[i].CheckMissPen)
				}
			}
			lats = w.latCheck

		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			// the deferred bit must still be consumed to keep the shared
			// bit cursor aligned with branch directions; the ALAT insert
			// it gates lives in the memoized event walk
			if _, err := w.nextBit(); err != nil {
				return 0, err
			}
			if ins.Op == OpLdFS || ins.Op == OpLdFSA {
				lats = w.latFPLoad
			} else {
				lats = w.latIntLoad
			}

		case OpSt, OpStF:
			lats = w.latStore

		case OpBr:
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
			fr.pc = ins.Target
			continue

		case OpBeqz, OpBnez:
			taken, err := w.nextBit()
			if err != nil {
				return 0, err
			}
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
			if taken {
				fr.pc = ins.Target
			} else {
				fr.pc++
			}
			continue

		case OpCall:
			callee, ok := w.prog.Funcs[ins.Fn]
			if !ok {
				return 0, fmt.Errorf("machine: call to unknown function %q", ins.Fn)
			}
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
			fr.pc++ // resume point after the callee returns
			if err := w.push(callee); err != nil {
				return 0, err
			}
			continue

		case OpRet, OpHalt:
			if ins.Op == OpRet {
				for i := 0; i < k; i++ {
					clocks[i] = issue[i] + 1
				}
			}
			w.frames = w.frames[:len(w.frames)-1]
			if len(w.frames) == 0 {
				return steps, nil
			}
			caller := &w.frames[len(w.frames)-1]
			// caller.pc was advanced past its call instruction
			callIns := &caller.f.Instrs[caller.pc-1]
			if callIns.Rd >= 0 {
				copy(caller.ready[callIns.Rd*k:(callIns.Rd+1)*k], clocks)
			}
			continue
		}
		// common retirement: advance each lane's clock and publish the
		// destination's ready time
		if d := instrDst(ins); d >= 0 {
			lanes := fr.ready[d*k : (d+1)*k]
			for i := 0; i < k; i++ {
				lanes[i] = issue[i] + lats[i]
				clocks[i] = issue[i] + 1
			}
		} else {
			for i := 0; i < k; i++ {
				clocks[i] = issue[i] + 1
			}
		}
		fr.pc++
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
