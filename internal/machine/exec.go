package machine

import (
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

	// per-depth call scratch: activations nest strictly, so frame-local
	// buffers (registers, NaT bits, outgoing args) are reused by depth
	// instead of allocated per dynamic call — on call-heavy programs the
	// allocations dominate recording cost
	scratch []callScratch

	args []int64

	steps   int64
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

// Record executes prog functionally under cfg (the limits, StackSlots
// and ALATSize are honoured; timing fields are irrelevant) and returns
// the architectural trace. A run that faults returns the engine's error
// and no trace.
func Record(prog *Program, args []int64, cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	t := &Trace{}
	m := &vm{prog: prog, cfg: cfg, args: args, trace: t}
	m.mem = memimg.New(prog.GlobSize+cfg.StackSlots, prog.GlobSize, prog.GlobalInit)
	m.stackTop = prog.GlobSize
	m.alat = newALAT(cfg.ALATSize)

	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, errors.New("machine: no main function")
	}
	ret, _, err := m.call(mainFn, nil)
	if err != nil {
		return nil, err
	}
	t.Ret = int64(ret)
	t.Output = m.out.String()
	t.Steps = m.steps
	t.StackSlots = cfg.StackSlots
	t.Frames = m.frameID
	return t, nil
}

func (m *vm) fault(format string, a ...any) error {
	return fmt.Errorf("machine: %s", fmt.Sprintf(format, a...))
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

	pc := 0
	for {
		m.steps++
		if m.steps > m.cfg.MaxSteps {
			return 0, false, m.fault("step limit exceeded")
		}
		if pc < 0 || pc >= len(f.Instrs) {
			return 0, false, m.fault("pc out of range in %s", f.Name)
		}
		ins := &f.Instrs[pc]
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
				counts[cAdv]++
				t.ops.append(alatOp{kind: opInsert, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
				m.alat.insert(myFrame, ins.Rd, addr)
			}

		case OpLdC, OpLdFC:
			addr := int(int64(regs[ins.Rs]))
			kind, class := opCheckInt, cCheckInt
			if ins.Op == OpLdFC {
				kind, class = opCheckFP, cCheckFP
			}
			counts[class]++
			t.ops.append(alatOp{kind: kind, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
			// a hit leaves the register alone: it already holds the
			// current value
			if !m.alat.check(myFrame, ins.Rd, addr) {
				if !m.mem.Valid(addr) {
					return 0, false, m.fault("check load from invalid address %d in %s", addr, f.Name)
				}
				regs[ins.Rd] = m.mem.Load(addr)
				nat[ins.Rd] = false
				m.alat.insert(myFrame, ins.Rd, addr)
			}

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
					counts[cAdv]++
					t.ops.append(alatOp{kind: opInsert, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
					m.alat.insert(myFrame, ins.Rd, addr)
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
			t.ops.append(alatOp{kind: opInval, addr: int64(addr), fn: fnID})
			m.mem.Store(addr, regs[ins.Rs])
			m.alat.invalidate(addr)
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
			v, _, err := m.call(callee, args)
			if err != nil {
				return 0, false, err
			}
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
			if ins.Rs >= 0 {
				return regs[ins.Rs], true, nil
			}
			return 0, false, nil

		case OpHalt:
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
