package machine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/memimg"
)

// The functional engine: it interprets instructions, computes values,
// owns the memory image and the ALAT (a failed check reloads), and
// records the architectural trace as it goes. It knows nothing about
// time — every counter a Result reports is derived from the trace by the
// timing engine (replay.go, replay_batch.go).

type vm struct {
	prog *Program
	cfg  Config
	out  strings.Builder

	mem      memimg.Image
	stackTop int

	alat *alat
	// armed is the set of addresses whose stores the trace must record
	// (trace.go); sum is the ALAT summary at cfg.ALATSize, filled as the
	// run goes and handed to the trace's memo.
	armed armedSet
	sum   alatSummary

	// per-depth call scratch: activations nest strictly, so frame-local
	// buffers (registers, NaT bits, outgoing args) are reused by depth
	// instead of allocated per dynamic call — on call-heavy programs the
	// allocations dominate recording cost
	scratch []callScratch

	args []int64

	ctx     context.Context
	steps   int64
	limit   int64 // steps past which poll runs: MaxSteps, or sooner to look at ctx
	depth   int
	frameID int64

	// trace receives the architectural event stream (branch directions,
	// speculative-fault bits, ALAT-relevant addresses, class counts).
	// See trace.go.
	trace *Trace
}

// Run executes the compiled program's main function: one functional
// Record under cfg, re-timed under the same cfg by ReplayBatch. With a
// non-nil out the program's output is written there on success and
// Result.Output stays empty; with a nil out it lands in Result.Output.
// A run that faults returns the functional engine's error and writes
// nothing.
func Run(prog *Program, args []int64, cfg Config, out io.Writer) (*Result, error) {
	t, err := Record(prog, args, cfg)
	if err != nil {
		return nil, err
	}
	return Replay(prog, t, cfg, out)
}

// pollSteps is how many steps a recording takes between two looks at
// its context.
const pollSteps = 1 << 16

// Record is RecordCtx under a context that is never done.
func Record(prog *Program, args []int64, cfg Config) (*Trace, error) {
	return RecordCtx(context.Background(), prog, args, cfg)
}

// RecordCtx executes prog functionally under cfg (the limits,
// StackSlots and ALATSize are honoured; timing fields are irrelevant)
// and returns the architectural trace. A run that faults returns the
// engine's error and no trace. It looks at ctx every pollSteps steps
// and returns ctx.Err() once ctx is done.
func RecordCtx(ctx context.Context, prog *Program, args []int64, cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	t := &Trace{}
	m := &vm{prog: prog, cfg: cfg, args: args, trace: t, ctx: ctx, limit: cfg.MaxSteps}
	if ctx.Done() != nil {
		m.limit = min(cfg.MaxSteps, pollSteps)
	}
	m.mem = memimg.New(prog.GlobSize+cfg.StackSlots, prog.GlobSize, prog.GlobalInit)
	m.stackTop = prog.GlobSize
	m.alat = newALAT(cfg.ALATSize)
	m.armed.heapBase = m.mem.HeapBase()
	m.sum.missBits = []uint64{} // non-nil with no checks, as a walk's

	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, errors.New("machine: no main function")
	}
	ret, _, err := m.call(mainFn, nil)
	if err != nil {
		return nil, err
	}
	t.ops.seal()
	t.Ret = int64(ret)
	t.Output = m.out.String()
	t.Steps = m.steps
	t.StackSlots = cfg.StackSlots
	t.Frames = m.frameID
	// the recording ALAT ran at cfg.ALATSize on exactly the events, in
	// the order, that alatWalk replays, so its outcome is that
	// capacity's summary
	m.sum.evictions = m.alat.evictions
	t.alatMemo.Store(cfg.ALATSize, m.sum)
	return t, nil
}

func (m *vm) fault(format string, a ...any) error {
	return fmt.Errorf("machine: %s", fmt.Sprintf(format, a...))
}

// poll runs when the step count passes m.limit: past MaxSteps it
// faults, and otherwise it looks at the context and sets the next
// threshold. Folding the context into the step-limit compare keeps the
// per-step work of a recording what it was without one.
func (m *vm) poll() error {
	if m.steps > m.cfg.MaxSteps {
		return m.fault("step limit exceeded")
	}
	if err := m.ctx.Err(); err != nil {
		return err
	}
	m.limit = min(m.cfg.MaxSteps, m.steps+pollSteps)
	return nil
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// callScratch holds one nesting depth's reusable frame buffers.
type callScratch struct {
	regs []uint64
	nat  []bool
	args []uint64
}

// grow returns s's buffers resized (and zeroed where the VM relies on
// zero initialization) for a frame of n registers.
func (s *callScratch) grow(n int) (regs []uint64, nat []bool) {
	if cap(s.regs) < n {
		s.regs = make([]uint64, n)
		s.nat = make([]bool, n)
	} else {
		s.regs = s.regs[:n]
		s.nat = s.nat[:n]
		clear(s.regs)
		clear(s.nat)
	}
	return s.regs, s.nat
}

// advance records and performs an advanced load's ALAT insert at a
// valid address.
func (m *vm) advance(frameID int64, reg, addr int, fnID int32) {
	m.trace.counts[cAdv]++
	m.trace.ops.append(alatOp{kind: opInsert, frameID: frameID, reg: int32(reg), addr: int64(addr), fn: fnID})
	m.alat.insert(frameID, reg, addr)
	m.armed.arm(addr)
	m.sum.perFn[fnID].adv++
}

// armedSet is the set of armed addresses (trace.go): those at which an
// insert or a check has been recorded since the last recorded store. It
// keeps one bit per address in the two regions of the memory image
// (memimg), each grown only as far as an armed address reaches: the
// globals and the stack below heapBase, and the heap above it.
type armedSet struct {
	low      []uint64 // address a < heapBase is bit a
	heap     []uint64 // address a ≥ heapBase is bit a−heapBase
	heapBase int
}

// minArmedWords is the smallest length the low region grows to.
const minArmedWords = 8

// arm marks the valid address a.
func (s *armedSet) arm(a int) {
	if a >= s.heapBase {
		s.heap = setBit(s.heap, a-s.heapBase, math.MaxInt)
		return
	}
	s.low = setBit(s.low, a, (s.heapBase+63)>>6)
}

// setBit sets bit i of words, growing words by doubling, capped at
// limit words (past i's word), when i lies past its end.
func setBit(words []uint64, i, limit int) []uint64 {
	if w := i >> 6; w >= len(words) {
		n := min(max(2*len(words), w+1, minArmedWords), limit)
		words = append(words, make([]uint64, n-len(words))...)
	}
	words[i>>6] |= 1 << uint(i&63)
	return words
}

// take reports whether the valid address a is armed, and disarms it.
func (s *armedSet) take(a int) bool {
	words, i := s.low, a
	if a >= s.heapBase {
		words, i = s.heap, a-s.heapBase
	}
	w, bit := i>>6, uint64(1)<<uint(i&63)
	if w >= len(words) || words[w]&bit == 0 {
		return false
	}
	words[w] &^= bit
	return true
}

// call runs one function activation and returns (value, hadValue).
func (m *vm) call(f *FuncCode, args []uint64) (uint64, bool, error) {
	if m.depth >= m.cfg.MaxCallDepth {
		return 0, false, m.fault("call depth exceeded in %s", f.Name)
	}
	if m.stackTop+f.FrameSize > m.mem.HeapBase() {
		return 0, false, m.fault("stack overflow in %s", f.Name)
	}
	m.depth++
	m.frameID++
	myFrame := m.frameID
	t := m.trace
	// fnID tags recorded ALAT events for per-function attribution
	fnID := t.fnID(f)
	if int(fnID) == len(m.sum.perFn) {
		m.sum.perFn = append(m.sum.perFn, fnTally{})
	}
	if m.depth > t.MaxDepth {
		t.MaxDepth = m.depth
	}
	counts := &t.counts
	base := m.stackTop
	m.mem.Clear(base, f.FrameSize)
	m.stackTop += f.FrameSize
	defer func() {
		m.stackTop = base
		m.depth--
	}()
	if m.depth > len(m.scratch) {
		m.scratch = append(m.scratch, callScratch{})
	}
	sc := &m.scratch[m.depth-1]
	regs, nat := sc.grow(f.NumRegs)
	for i := 0; i < f.NumParams && i < len(args); i++ {
		regs[i] = args[i]
	}

	// the step count and its poll threshold live in locals, written
	// back to m around a poll, a call and a return
	steps, limit := m.steps, m.limit
	code := f.Instrs
	pc := 0
	for {
		steps++
		if steps > limit {
			m.steps = steps
			if err := m.poll(); err != nil {
				return 0, false, err
			}
			limit = m.limit
		}
		if uint(pc) >= uint(len(code)) {
			return 0, false, m.fault("pc out of range in %s", f.Name)
		}
		ins := &code[pc]
		switch ins.Op {
		case OpNop:
		case OpMovI:
			regs[ins.Rd] = uint64(ins.Imm)
			nat[ins.Rd] = false
		case OpMov:
			regs[ins.Rd] = regs[ins.Rs]
			nat[ins.Rd] = nat[ins.Rs]
		case OpLEA:
			if ins.IsFrame {
				regs[ins.Rd] = uint64(base + int(ins.Imm))
			} else {
				regs[ins.Rd] = uint64(ins.Imm)
			}
			nat[ins.Rd] = false
		case OpAdd:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) + int64(regs[ins.Rt]))
		case OpSub:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) - int64(regs[ins.Rt]))
		case OpMul:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) * int64(regs[ins.Rt]))
			counts[cMul]++
		case OpDiv:
			d := int64(regs[ins.Rt])
			if d == 0 {
				return 0, false, m.fault("integer division by zero in %s", f.Name)
			}
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) / d)
			counts[cDivMod]++
		case OpMod:
			d := int64(regs[ins.Rt])
			if d == 0 {
				return 0, false, m.fault("integer modulo by zero in %s", f.Name)
			}
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) % d)
			counts[cDivMod]++
		case OpAnd:
			regs[ins.Rd] = regs[ins.Rs] & regs[ins.Rt]
		case OpOr:
			regs[ins.Rd] = regs[ins.Rs] | regs[ins.Rt]
		case OpXor:
			regs[ins.Rd] = regs[ins.Rs] ^ regs[ins.Rt]
		case OpShl:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) << (regs[ins.Rt] & 63))
		case OpShr:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) >> (regs[ins.Rt] & 63))
		case OpNeg:
			regs[ins.Rd] = uint64(-int64(regs[ins.Rs]))
		case OpNot:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) == 0)
		case OpFAdd:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) + math.Float64frombits(regs[ins.Rt]))
			counts[cFPArith]++
		case OpFSub:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) - math.Float64frombits(regs[ins.Rt]))
			counts[cFPArith]++
		case OpFMul:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) * math.Float64frombits(regs[ins.Rt]))
			counts[cFPArith]++
		case OpFDiv:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) / math.Float64frombits(regs[ins.Rt]))
			counts[cFPDiv]++
		case OpFNeg:
			regs[ins.Rd] = math.Float64bits(-math.Float64frombits(regs[ins.Rs]))
			counts[cFPArith]++
		case OpCmpEQ:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) == int64(regs[ins.Rt]))
		case OpCmpNE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) != int64(regs[ins.Rt]))
		case OpCmpLT:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) < int64(regs[ins.Rt]))
		case OpCmpLE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) <= int64(regs[ins.Rt]))
		case OpCmpGT:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) > int64(regs[ins.Rt]))
		case OpCmpGE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) >= int64(regs[ins.Rt]))
		case OpFCmpEQ:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) == math.Float64frombits(regs[ins.Rt]))
		case OpFCmpNE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) != math.Float64frombits(regs[ins.Rt]))
		case OpFCmpLT:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) < math.Float64frombits(regs[ins.Rt]))
		case OpFCmpLE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) <= math.Float64frombits(regs[ins.Rt]))
		case OpFCmpGT:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) > math.Float64frombits(regs[ins.Rt]))
		case OpFCmpGE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) >= math.Float64frombits(regs[ins.Rt]))
		case OpI2F:
			regs[ins.Rd] = math.Float64bits(float64(int64(regs[ins.Rs])))
		case OpF2I:
			regs[ins.Rd] = uint64(int64(math.Float64frombits(regs[ins.Rs])))

		case OpLd, OpLdF, OpLdA, OpLdFA:
			addr := int(int64(regs[ins.Rs]))
			if !m.mem.Valid(addr) {
				return 0, false, m.fault("load from invalid address %d in %s", addr, f.Name)
			}
			regs[ins.Rd] = m.mem.Load(addr)
			nat[ins.Rd] = false
			if ins.Op == OpLdF || ins.Op == OpLdFA {
				counts[cFPLoad]++
			} else {
				counts[cIntLoad]++
			}
			if ins.Op == OpLdA || ins.Op == OpLdFA {
				m.advance(myFrame, ins.Rd, addr, fnID)
			}

		case OpLdC, OpLdFC:
			addr := int(int64(regs[ins.Rs]))
			kind, class := opCheckInt, cCheckInt
			if ins.Op == OpLdFC {
				kind, class = opCheckFP, cCheckFP
			}
			counts[class]++
			t.ops.append(alatOp{kind: kind, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
			s := &m.sum
			ord := s.checks
			s.checks++
			if ord&63 == 0 {
				s.missBits = append(s.missBits, 0)
			}
			s.perFn[fnID].checks++
			// a hit leaves the register alone: it already holds the
			// current value
			if !m.alat.check(myFrame, ins.Rd, addr) {
				if !m.mem.Valid(addr) {
					return 0, false, m.fault("check load from invalid address %d in %s", addr, f.Name)
				}
				regs[ins.Rd] = m.mem.Load(addr)
				nat[ins.Rd] = false
				m.alat.insert(myFrame, ins.Rd, addr)
				s.missBits[ord>>6] |= 1 << uint(ord&63)
				s.perFn[fnID].failed++
				if kind == opCheckFP {
					s.missFP++
				} else {
					s.missInt++
				}
			}
			// a check arms its address, where it may miss and insert
			// under another capacity. The address is valid: a hit found
			// an entry, and only a valid load makes one
			m.armed.arm(addr)

		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			addr := int(int64(regs[ins.Rs]))
			counts[cSpec]++
			deferred := !m.mem.Valid(addr) || nat[ins.Rs]
			t.bits.append(deferred)
			if deferred {
				// deferred fault: NaT, consumed only on paths where the
				// original program would have faulted anyway
				regs[ins.Rd] = 0
				nat[ins.Rd] = true
				counts[cSpecFault]++
			} else {
				regs[ins.Rd] = m.mem.Load(addr)
				nat[ins.Rd] = false
				if ins.Op == OpLdSA || ins.Op == OpLdFSA {
					m.advance(myFrame, ins.Rd, addr, fnID)
				}
			}
			if ins.Op == OpLdFS || ins.Op == OpLdFSA {
				counts[cFPLoad]++
			} else {
				counts[cIntLoad]++
			}

		case OpSt, OpStF:
			addr := int(int64(regs[ins.Rd])) // Rd holds the address register
			if !m.mem.Valid(addr) {
				return 0, false, m.fault("store to invalid address %d in %s", addr, f.Name)
			}
			// a store to an unarmed address finds no entry at any
			// capacity: only the count, which timing reads, records it
			if m.armed.take(addr) {
				t.ops.append(alatOp{kind: opInval, addr: int64(addr), fn: fnID})
				m.alat.invalidate(addr)
			}
			m.mem.Store(addr, regs[ins.Rs])
			counts[cStore]++

		case OpAlloc:
			n := int(int64(regs[ins.Rs]))
			if n < 0 {
				return 0, false, m.fault("negative allocation %d", n)
			}
			regs[ins.Rd] = uint64(m.mem.Alloc(n))

		case OpBr:
			pc = ins.Target
			continue
		case OpBeqz, OpBnez:
			taken := int64(regs[ins.Rs]) == 0
			if ins.Op == OpBnez {
				taken = !taken
			}
			t.bits.append(taken)
			if taken {
				pc = ins.Target
				continue
			}

		case OpCall:
			callee, ok := m.prog.Funcs[ins.Fn]
			if !ok {
				return 0, false, m.fault("call to unknown function %q", ins.Fn)
			}
			// the callee copies args into its registers in its prologue,
			// before its own first call, so one outgoing buffer per
			// nesting depth is safe to reuse
			if cap(sc.args) < len(ins.ArgRegs) {
				sc.args = make([]uint64, len(ins.ArgRegs))
			}
			args := sc.args[:len(ins.ArgRegs)]
			for i, r := range ins.ArgRegs {
				args[i] = regs[r]
			}
			m.steps = steps
			v, _, err := m.call(callee, args)
			if err != nil {
				return 0, false, err
			}
			steps, limit = m.steps, m.limit
			if ins.Rd >= 0 {
				regs[ins.Rd] = v
			}

		case OpArg:
			idx := int(int64(regs[ins.Rs]))
			var v int64
			if idx >= 0 && idx < len(m.args) {
				v = m.args[idx]
			}
			regs[ins.Rd] = uint64(v)

		case OpPrint:
			parts := make([]string, len(ins.ArgRegs))
			for i, r := range ins.ArgRegs {
				if ins.FloatRs[i] {
					parts[i] = fmt.Sprintf("%.6g", math.Float64frombits(regs[r]))
				} else {
					parts[i] = fmt.Sprintf("%d", int64(regs[r]))
				}
			}
			m.out.WriteString(strings.Join(parts, " "))
			m.out.WriteByte('\n')

		case OpRet:
			m.steps = steps
			if ins.Rs >= 0 {
				return regs[ins.Rs], true, nil
			}
			return 0, false, nil

		case OpHalt:
			m.steps = steps
			counts[cHalt]++
			return 0, false, nil

		case OpFence:
			// architecturally a no-op; the timing engine prices it
			counts[cFence]++

		default:
			return 0, false, m.fault("unknown opcode %v", ins.Op)
		}
		pc++
	}
}
