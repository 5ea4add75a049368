package machine

import (
	"errors"
	"fmt"
	"io"
)

// The timing engine of the record-and-replay split: it takes a recorded
// Trace over the static program and computes Counters and cycles under
// any Config, without interpreting — no register file, no memory image,
// no value computation. It is the only place the machine computes time,
// and ReplayBatch (replay_batch.go) is its one entry point: serial lanes
// take the closed form replaySerial, pipelined lanes the shared
// scoreboard walk batchWalk. ALAT hit/miss depends on cfg.ALATSize, so it
// cannot be recorded; alatWalk re-simulates the table from the recorded
// event stream, once per capacity, with the alat the functional engine
// uses.
//
// A trace fits a Config when the config has the recording's memory
// layout (StackSlots: the stack size determines concrete addresses) and
// limits at least as generous as the recorded run's steps and call
// depth. Such a replay is exactly what a direct run under that Config
// would produce: a completed run cannot fault under looser limits. A
// config that does not fit is refused with ErrTraceMismatch; a caller
// with tighter limits records under them instead, and Record then
// reproduces any limit fault with its exact error.
//
// A Trace is immutable after Record; concurrent replays of the same
// trace are safe, each holding private stream cursors.

// ErrTraceMismatch reports a Config the trace does not fit: a different
// memory layout, or limits tighter than the recorded run needed.
var ErrTraceMismatch = errors.New("machine: trace does not fit the config")

// errTraceUnderrun reports a truncated or mismatched trace (never
// produced by Record on the program it recorded).
var errTraceUnderrun = errors.New("machine: trace underrun (corrupt trace or mismatched program)")

// fits reports whether t can be re-timed under the normalized cfg.
func (t *Trace) fits(cfg Config) error {
	switch {
	case cfg.StackSlots != t.StackSlots:
		return fmt.Errorf("%w: recorded with %d stack slots, config has %d",
			ErrTraceMismatch, t.StackSlots, cfg.StackSlots)
	case cfg.MaxSteps < t.Steps:
		return fmt.Errorf("%w: recorded run took %d steps, config allows %d",
			ErrTraceMismatch, t.Steps, cfg.MaxSteps)
	case cfg.MaxCallDepth < t.MaxDepth:
		return fmt.Errorf("%w: recorded run reached call depth %d, config allows %d",
			ErrTraceMismatch, t.MaxDepth, cfg.MaxCallDepth)
	}
	return nil
}

// Replay re-times a recorded trace under cfg: ReplayBatch with one lane.
// The result is byte-identical to Run(prog, args, cfg, out) for the
// (program, input) the trace records; out follows Run's convention.
func Replay(prog *Program, t *Trace, cfg Config, out io.Writer) (*Result, error) {
	res, err := ReplayBatch(prog, t, []Config{cfg})
	if err != nil {
		return nil, err
	}
	r := res[0]
	if out != nil {
		r.Output = ""
		if _, err := io.WriteString(out, t.Output); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// alatSummary is the configuration-independent outcome of replaying the
// ALAT event stream against a table of a given capacity: which checks
// missed (by latency class) and how many entries were evicted. Latency
// fields never influence it, so one summary serves every latency point
// of a sweep at that ALAT size.
type alatSummary struct {
	missInt   int64
	missFP    int64
	evictions int64

	// missBits has one bit per check event in program order (set =
	// miss). The serial path only needs the totals above; the batched
	// pipelined walk needs each check's outcome to pick that event's
	// latency, and reading a precomputed bit is far cheaper than
	// re-simulating a table per distinct capacity inside the
	// instruction walk. Capacities with equal bitstreams share one
	// stream in that walk (planLanes).
	missBits []uint64
	checks   int64

	// perFn tallies events per function (indexed by the trace's
	// FnNames ids). Inserts and checks are capacity-independent;
	// failures are not, which is why the tally lives in the summary
	// rather than the trace.
	perFn []fnTally
}

// fnTally is one function's speculation-event tally within a summary.
type fnTally struct {
	checks int64
	failed int64
	adv    int64
}

// alatWalk returns the summary of the recorded ALAT event stream at the
// given capacity, memoized per capacity on the trace. Record seeds the
// memo at its own capacity, so only other capacities walk the events.
func (t *Trace) alatWalk(size int) alatSummary {
	if v, ok := t.alatMemo.Load(size); ok {
		return v.(alatSummary)
	}
	s := t.walkALAT(size)
	t.alatMemo.Store(size, s)
	return s
}

// walkALAT replays just the recorded ALAT event stream against a table
// of the given capacity.
func (t *Trace) walkALAT(size int) alatSummary {
	a := newALAT(size)
	s := alatSummary{
		missBits: make([]uint64, (t.counts[cCheckInt]+t.counts[cCheckFP]+63)/64),
		perFn:    make([]fnTally, len(t.FnNames)),
	}
	// iterate the columnar chunks directly — the walk touches every
	// event, so the per-event cursor bookkeeping of opReader is pure
	// overhead here
	remaining := t.ops.n
	for ci := 0; remaining > 0; ci++ {
		end := int64(opChunkLen)
		if remaining < end {
			end = remaining
		}
		remaining -= end
		kinds, regs, frames, addrs, fns := t.ops.kinds[ci], t.ops.regs[ci], t.ops.frames[ci], t.ops.addrs[ci], t.ops.fns[ci]
		for off := 0; off < int(end); off++ {
			switch kinds[off] {
			case opInval:
				a.invalidate(int(addrs[off]))
			case opInsert:
				a.insert(frames[off], int(regs[off]), int(addrs[off]))
				s.perFn[fns[off]].adv++
			default: // opCheckInt, opCheckFP
				ord := s.checks
				s.checks++
				tally := &s.perFn[fns[off]]
				tally.checks++
				if !a.check(frames[off], int(regs[off]), int(addrs[off])) {
					s.missBits[ord>>6] |= 1 << uint(ord&63)
					tally.failed++
					if kinds[off] == opCheckFP {
						s.missFP++
					} else {
						s.missInt++
					}
					a.insert(frames[off], int(regs[off]), int(addrs[off]))
				}
			}
		}
	}
	s.evictions = a.evictions
	return s
}

// perFuncAt builds the per-function counter map of a replay at the
// given ALAT size from the memoized event-walk summary, following the
// convention Result.PerFunc documents: an entry iff the function
// retired at least one advanced or check load, nil when none did.
func (t *Trace) perFuncAt(size int) map[string]FuncCounters {
	s := t.alatWalk(size)
	var out map[string]FuncCounters
	for id, tally := range s.perFn {
		if tally.checks == 0 && tally.adv == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]FuncCounters)
		}
		out[t.FnNames[id]] = FuncCounters{
			CheckLoads:   tally.checks,
			FailedChecks: tally.failed,
			AdvLoads:     tally.adv,
		}
	}
	return out
}

// replaySerial re-times the trace under the serial model — cycles are
// the sum of every retired instruction's latency (one unless its class
// says otherwise; a halt retires free) plus CallOverhead per activation
// — without touching the instruction stream: every counter except the
// ALAT-dependent ones is a function of the recorded class counts, and
// the ALAT-dependent ones (check hits, evictions) come from the
// memoized ALAT event walk at cfg.ALATSize.
func replaySerial(t *Trace, cfg Config) Counters {
	s := t.alatWalk(cfg.ALATSize)
	failed := s.missInt + s.missFP

	c := &t.counts
	checks := c[cCheckInt] + c[cCheckFP]
	checkCycles := (checks-failed)*int64(cfg.CheckHitLat) +
		s.missInt*int64(cfg.IntLoadLat+cfg.CheckMissPen) +
		s.missFP*int64(cfg.FPLoadLat+cfg.CheckMissPen)
	unit := t.Steps - c[cMul] - c[cDivMod] - c[cFPArith] - c[cFPDiv] -
		c[cIntLoad] - c[cFPLoad] - checks - c[cStore] - c[cHalt] - c[cFence]
	memCycles := c[cIntLoad]*int64(cfg.IntLoadLat) +
		c[cFPLoad]*int64(cfg.FPLoadLat) +
		c[cStore]*int64(cfg.StoreLat) +
		checkCycles
	return Counters{
		Cycles: unit +
			c[cMul]*int64(cfg.IntMulLat) +
			c[cDivMod]*int64(cfg.IntDivLat) +
			c[cFPArith]*int64(cfg.FPArithLat) +
			c[cFPDiv]*int64(cfg.FPDivLat) +
			c[cFence]*int64(cfg.FenceLat) +
			t.Frames*int64(cfg.CallOverhead) +
			memCycles,
		DataAccessCycles: memCycles,
		InstrsRetired:    t.Steps,
		LoadsRetired:     c[cIntLoad] + c[cFPLoad] + checks,
		CheckLoads:       checks,
		FailedChecks:     failed,
		AdvLoads:         c[cAdv],
		SpecLoads:        c[cSpec],
		SpecLoadFaults:   c[cSpecFault],
		Stores:           c[cStore],
		ALATEvictions:    s.evictions,
	}
}
