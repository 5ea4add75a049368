// Package oracle is the machine's reference semantics for tests: a
// deliberately naive interpreter that executes a program and computes
// every Counters field as it goes — serial cycles as a running sum of
// latencies, pipelined cycles from a per-frame scoreboard, ALAT outcomes
// from a linear-scan table. It shares no timing code with package
// machine (no trace, no replay, no alat.go), so the production engine
// (machine.Run = Record + ReplayBatch) is differentially tested against
// an independent implementation of the same model.
//
// Only _test.go files may import it; internal/lint's test-only-import
// rule enforces that.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"strings"

	m "repro/internal/machine"
)

// Run executes prog's main function under cfg and returns what
// machine.Run(prog, args, cfg, nil) must return: the same Result, or a
// fault error with the same message.
func Run(prog *m.Program, args []int64, cfg m.Config) (*m.Result, error) {
	cfg = cfg.Normalized()
	vm := &interp{
		prog:     prog,
		cfg:      cfg,
		args:     args,
		mem:      make([]uint64, prog.GlobSize+cfg.StackSlots),
		stackTop: prog.GlobSize,
		heapBase: prog.GlobSize + cfg.StackSlots,
		alat:     newTable(cfg.ALATSize),
		perFn:    map[string]*m.FuncCounters{},
	}
	for a, v := range prog.GlobalInit {
		vm.mem[a] = v
	}
	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, errors.New("machine: no main function")
	}
	ret, err := vm.call(mainFn, nil)
	if err != nil {
		return nil, err
	}
	ctr := vm.ctr
	ctr.Cycles = vm.serial
	if cfg.Pipelined {
		ctr.Cycles = vm.clock
	}
	ctr.ALATEvictions = vm.alat.evictions
	res := &m.Result{Ret: int64(ret), Output: vm.out.String(), Counters: ctr}
	for name, c := range vm.perFn {
		if res.PerFunc == nil {
			res.PerFunc = map[string]m.FuncCounters{}
		}
		res.PerFunc[name] = *c
	}
	return res, nil
}

type interp struct {
	prog *m.Program
	cfg  m.Config
	args []int64
	out  strings.Builder

	mem      []uint64
	stackTop int
	heapBase int
	heapNext int

	alat *table

	steps  int64
	depth  int
	frames int64 // activations entered; the newest one's id

	ctr    m.Counters
	serial int64 // serial model: the sum of every retired latency
	clock  int64 // pipelined model: the cycle the next instruction may issue
	perFn  map[string]*m.FuncCounters
}

func fault(format string, a ...any) error {
	return fmt.Errorf("machine: %s", fmt.Sprintf(format, a...))
}

func (vm *interp) valid(addr int) bool {
	return addr >= 0 && addr < vm.heapBase+vm.heapNext
}

func (vm *interp) fn(name string) *m.FuncCounters {
	c := vm.perFn[name]
	if c == nil {
		c = &m.FuncCounters{}
		vm.perFn[name] = c
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f64(v uint64) float64 { return math.Float64frombits(v) }

// call runs one activation of f and returns its value (0 without one).
func (vm *interp) call(f *m.FuncCode, args []uint64) (uint64, error) {
	if vm.depth >= vm.cfg.MaxCallDepth {
		return 0, fault("call depth exceeded in %s", f.Name)
	}
	if vm.stackTop+f.FrameSize > vm.heapBase {
		return 0, fault("stack overflow in %s", f.Name)
	}
	vm.depth++
	vm.frames++
	id := vm.frames
	base := vm.stackTop
	for i := 0; i < f.FrameSize; i++ {
		vm.mem[base+i] = 0
	}
	vm.stackTop += f.FrameSize
	defer func() {
		vm.stackTop = base
		vm.depth--
	}()
	regs := make([]uint64, f.NumRegs)
	nat := make([]bool, f.NumRegs)
	for i := 0; i < f.NumParams && i < len(args); i++ {
		regs[i] = args[i]
	}
	cfg := &vm.cfg
	vm.serial += int64(cfg.CallOverhead)
	vm.clock += int64(cfg.CallOverhead)
	ready := make([]int64, f.NumRegs) // cycle each register's value is available
	for i := range ready {
		ready[i] = vm.clock
	}

	pc := 0
	for {
		vm.steps++
		if vm.steps > cfg.MaxSteps {
			return 0, fault("step limit exceeded")
		}
		if pc < 0 || pc >= len(f.Instrs) {
			return 0, fault("pc out of range in %s", f.Name)
		}
		ins := f.Instrs[pc]
		vm.ctr.InstrsRetired++

		// the pipelined issue cycle: the clock, or later if a source
		// register is still in flight
		issue := vm.clock
		for _, r := range sources(ins) {
			issue = max(issue, ready[r])
		}
		if ins.Op == m.OpFence {
			for _, t := range ready {
				issue = max(issue, t)
			}
		}

		lat := int64(1)
		next := pc + 1
		switch ins.Op {
		case m.OpNop:
		case m.OpMovI:
			regs[ins.Rd], nat[ins.Rd] = uint64(ins.Imm), false
		case m.OpMov:
			regs[ins.Rd], nat[ins.Rd] = regs[ins.Rs], nat[ins.Rs]
		case m.OpLEA:
			regs[ins.Rd], nat[ins.Rd] = uint64(ins.Imm), false
			if ins.IsFrame {
				regs[ins.Rd] = uint64(base + int(ins.Imm))
			}
		case m.OpAdd:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) + int64(regs[ins.Rt]))
		case m.OpSub:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) - int64(regs[ins.Rt]))
		case m.OpMul:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) * int64(regs[ins.Rt]))
			lat = int64(cfg.IntMulLat)
		case m.OpDiv, m.OpMod:
			d := int64(regs[ins.Rt])
			if d == 0 && ins.Op == m.OpDiv {
				return 0, fault("integer division by zero in %s", f.Name)
			}
			if d == 0 {
				return 0, fault("integer modulo by zero in %s", f.Name)
			}
			if ins.Op == m.OpDiv {
				regs[ins.Rd] = uint64(int64(regs[ins.Rs]) / d)
			} else {
				regs[ins.Rd] = uint64(int64(regs[ins.Rs]) % d)
			}
			lat = int64(cfg.IntDivLat)
		case m.OpAnd:
			regs[ins.Rd] = regs[ins.Rs] & regs[ins.Rt]
		case m.OpOr:
			regs[ins.Rd] = regs[ins.Rs] | regs[ins.Rt]
		case m.OpXor:
			regs[ins.Rd] = regs[ins.Rs] ^ regs[ins.Rt]
		case m.OpShl:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) << (regs[ins.Rt] & 63))
		case m.OpShr:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) >> (regs[ins.Rt] & 63))
		case m.OpNeg:
			regs[ins.Rd] = uint64(-int64(regs[ins.Rs]))
		case m.OpNot:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) == 0)
		case m.OpFAdd:
			regs[ins.Rd] = math.Float64bits(f64(regs[ins.Rs]) + f64(regs[ins.Rt]))
			lat = int64(cfg.FPArithLat)
		case m.OpFSub:
			regs[ins.Rd] = math.Float64bits(f64(regs[ins.Rs]) - f64(regs[ins.Rt]))
			lat = int64(cfg.FPArithLat)
		case m.OpFMul:
			regs[ins.Rd] = math.Float64bits(f64(regs[ins.Rs]) * f64(regs[ins.Rt]))
			lat = int64(cfg.FPArithLat)
		case m.OpFDiv:
			regs[ins.Rd] = math.Float64bits(f64(regs[ins.Rs]) / f64(regs[ins.Rt]))
			lat = int64(cfg.FPDivLat)
		case m.OpFNeg:
			regs[ins.Rd] = math.Float64bits(-f64(regs[ins.Rs]))
			lat = int64(cfg.FPArithLat)
		case m.OpCmpEQ:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) == int64(regs[ins.Rt]))
		case m.OpCmpNE:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) != int64(regs[ins.Rt]))
		case m.OpCmpLT:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) < int64(regs[ins.Rt]))
		case m.OpCmpLE:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) <= int64(regs[ins.Rt]))
		case m.OpCmpGT:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) > int64(regs[ins.Rt]))
		case m.OpCmpGE:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs]) >= int64(regs[ins.Rt]))
		case m.OpFCmpEQ:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) == f64(regs[ins.Rt]))
		case m.OpFCmpNE:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) != f64(regs[ins.Rt]))
		case m.OpFCmpLT:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) < f64(regs[ins.Rt]))
		case m.OpFCmpLE:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) <= f64(regs[ins.Rt]))
		case m.OpFCmpGT:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) > f64(regs[ins.Rt]))
		case m.OpFCmpGE:
			regs[ins.Rd] = b2u(f64(regs[ins.Rs]) >= f64(regs[ins.Rt]))
		case m.OpI2F:
			regs[ins.Rd] = math.Float64bits(float64(int64(regs[ins.Rs])))
		case m.OpF2I:
			regs[ins.Rd] = uint64(int64(f64(regs[ins.Rs])))

		case m.OpLd, m.OpLdF, m.OpLdA, m.OpLdFA:
			addr := int(int64(regs[ins.Rs]))
			if !vm.valid(addr) {
				return 0, fault("load from invalid address %d in %s", addr, f.Name)
			}
			regs[ins.Rd], nat[ins.Rd] = vm.mem[addr], false
			lat = loadLat(cfg, ins.Op == m.OpLdF || ins.Op == m.OpLdFA)
			vm.ctr.LoadsRetired++
			vm.ctr.DataAccessCycles += lat
			if ins.Op == m.OpLdA || ins.Op == m.OpLdFA {
				vm.ctr.AdvLoads++
				vm.fn(f.Name).AdvLoads++
				vm.alat.insert(id, ins.Rd, addr)
			}

		case m.OpLdC, m.OpLdFC:
			addr := int(int64(regs[ins.Rs]))
			vm.ctr.LoadsRetired++
			vm.ctr.CheckLoads++
			vm.fn(f.Name).CheckLoads++
			if vm.alat.check(id, ins.Rd, addr) {
				lat = int64(cfg.CheckHitLat)
			} else {
				vm.ctr.FailedChecks++
				vm.fn(f.Name).FailedChecks++
				if !vm.valid(addr) {
					return 0, fault("check load from invalid address %d in %s", addr, f.Name)
				}
				regs[ins.Rd], nat[ins.Rd] = vm.mem[addr], false
				lat = loadLat(cfg, ins.Op == m.OpLdFC) + int64(cfg.CheckMissPen)
				vm.alat.insert(id, ins.Rd, addr)
			}
			vm.ctr.DataAccessCycles += lat

		case m.OpLdS, m.OpLdFS, m.OpLdSA, m.OpLdFSA:
			addr := int(int64(regs[ins.Rs]))
			vm.ctr.LoadsRetired++
			vm.ctr.SpecLoads++
			if !vm.valid(addr) || nat[ins.Rs] {
				// deferred fault: the destination becomes NaT
				regs[ins.Rd], nat[ins.Rd] = 0, true
				vm.ctr.SpecLoadFaults++
			} else {
				regs[ins.Rd], nat[ins.Rd] = vm.mem[addr], false
				if ins.Op == m.OpLdSA || ins.Op == m.OpLdFSA {
					vm.ctr.AdvLoads++
					vm.fn(f.Name).AdvLoads++
					vm.alat.insert(id, ins.Rd, addr)
				}
			}
			lat = loadLat(cfg, ins.Op == m.OpLdFS || ins.Op == m.OpLdFSA)
			vm.ctr.DataAccessCycles += lat

		case m.OpSt, m.OpStF:
			addr := int(int64(regs[ins.Rd]))
			if !vm.valid(addr) {
				return 0, fault("store to invalid address %d in %s", addr, f.Name)
			}
			vm.mem[addr] = regs[ins.Rs]
			vm.alat.invalidate(addr)
			lat = int64(cfg.StoreLat)
			vm.ctr.Stores++
			vm.ctr.DataAccessCycles += lat

		case m.OpAlloc:
			n := int(int64(regs[ins.Rs]))
			if n < 0 {
				return 0, fault("negative allocation %d", n)
			}
			regs[ins.Rd] = uint64(vm.heapBase + vm.heapNext)
			vm.heapNext += n
			if grow := vm.heapBase + vm.heapNext - len(vm.mem); grow > 0 {
				vm.mem = append(vm.mem, make([]uint64, grow)...)
			}

		case m.OpBr:
			next = ins.Target
		case m.OpBeqz:
			if int64(regs[ins.Rs]) == 0 {
				next = ins.Target
			}
		case m.OpBnez:
			if int64(regs[ins.Rs]) != 0 {
				next = ins.Target
			}

		case m.OpCall:
			callee, ok := vm.prog.Funcs[ins.Fn]
			if !ok {
				return 0, fault("call to unknown function %q", ins.Fn)
			}
			out := make([]uint64, len(ins.ArgRegs))
			for i, r := range ins.ArgRegs {
				out[i] = regs[r]
			}
			vm.clock = issue + 1
			v, err := vm.call(callee, out)
			if err != nil {
				return 0, err
			}
			vm.serial++
			if ins.Rd >= 0 {
				regs[ins.Rd] = v
				ready[ins.Rd] = vm.clock
			}
			pc = next
			continue

		case m.OpArg:
			idx := int(int64(regs[ins.Rs]))
			regs[ins.Rd] = 0
			if idx >= 0 && idx < len(vm.args) {
				regs[ins.Rd] = uint64(vm.args[idx])
			}

		case m.OpPrint:
			parts := make([]string, len(ins.ArgRegs))
			for i, r := range ins.ArgRegs {
				if ins.FloatRs[i] {
					parts[i] = fmt.Sprintf("%.6g", f64(regs[r]))
				} else {
					parts[i] = fmt.Sprintf("%d", int64(regs[r]))
				}
			}
			fmt.Fprintln(&vm.out, strings.Join(parts, " "))

		case m.OpRet:
			vm.serial++
			vm.clock = issue + 1
			if ins.Rs >= 0 {
				return regs[ins.Rs], nil
			}
			return 0, nil

		case m.OpHalt:
			// retires without an issue slot
			return 0, nil

		case m.OpFence:
			lat = int64(cfg.FenceLat)

		default:
			return 0, fault("unknown opcode %v", ins.Op)
		}
		vm.serial += lat
		vm.clock = issue + 1
		if d := dest(ins); d >= 0 {
			ready[d] = issue + lat
		}
		pc = next
	}
}

func loadLat(cfg *m.Config, fp bool) int64 {
	if fp {
		return int64(cfg.FPLoadLat)
	}
	return int64(cfg.IntLoadLat)
}

// sources lists the registers ins reads. A check load also waits for
// its own destination: the value it validates must be present.
func sources(ins m.Instr) []int {
	switch ins.Op {
	case m.OpMovI, m.OpLEA, m.OpNop, m.OpHalt, m.OpBr, m.OpFence:
		return nil
	case m.OpSt, m.OpStF:
		return []int{ins.Rd, ins.Rs}
	case m.OpLdC, m.OpLdFC:
		return []int{ins.Rs, ins.Rd}
	case m.OpCall, m.OpPrint:
		return ins.ArgRegs
	case m.OpBeqz, m.OpBnez, m.OpArg, m.OpRet:
		if ins.Rs < 0 {
			return nil
		}
		return []int{ins.Rs}
	case m.OpMov, m.OpNeg, m.OpNot, m.OpI2F, m.OpF2I, m.OpFNeg, m.OpAlloc,
		m.OpLd, m.OpLdF, m.OpLdA, m.OpLdFA, m.OpLdS, m.OpLdFS, m.OpLdSA, m.OpLdFSA:
		return []int{ins.Rs}
	}
	return []int{ins.Rs, ins.Rt}
}

// dest is the register ins writes (a scoreboard entry), or -1. A call's
// result is published when the callee returns, not here.
func dest(ins m.Instr) int {
	switch ins.Op {
	case m.OpSt, m.OpStF, m.OpBr, m.OpBeqz, m.OpBnez, m.OpRet, m.OpPrint,
		m.OpHalt, m.OpNop, m.OpCall, m.OpFence:
		return -1
	}
	return ins.Rd
}

// table is the ALAT as alat.go's contract describes it, implemented by
// linear scan: entries are keyed by (activation, register); an advanced
// load to a register that owns an entry refreshes it in place; otherwise
// the entry takes the most recently freed slot, or evicts the slot under
// a round-robin cursor when none is free. A store frees every entry at
// its address in the order of that address's entry list, which grows by
// appending and shrinks by moving its last element into the hole.
type table struct {
	slots     []entry
	free      []int // LIFO stack of free slots
	victim    int
	evictions int64
	lists     map[int][]int // address -> its entries' slots, in list order
}

type entry struct {
	valid bool
	frame int64
	reg   int
	addr  int
}

func newTable(size int) *table {
	t := &table{slots: make([]entry, size), lists: map[int][]int{}}
	for i := size - 1; i >= 0; i-- {
		t.free = append(t.free, i) // slot 0 is popped first
	}
	return t
}

func (t *table) find(frame int64, reg int) int {
	for i, e := range t.slots {
		if e.valid && e.frame == frame && e.reg == reg {
			return i
		}
	}
	return -1
}

func (t *table) unlist(slot, addr int) {
	l := t.lists[addr]
	for j, s := range l {
		if s == slot {
			l[j] = l[len(l)-1]
			l = l[:len(l)-1]
			break
		}
	}
	t.lists[addr] = l
}

func (t *table) insert(frame int64, reg, addr int) {
	if i := t.find(frame, reg); i >= 0 {
		if t.slots[i].addr != addr {
			t.unlist(i, t.slots[i].addr)
			t.slots[i].addr = addr
			t.lists[addr] = append(t.lists[addr], i)
		}
		return
	}
	var i int
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		i = t.victim
		t.victim = (t.victim + 1) % len(t.slots)
		t.unlist(i, t.slots[i].addr)
		t.evictions++
	}
	t.slots[i] = entry{valid: true, frame: frame, reg: reg, addr: addr}
	t.lists[addr] = append(t.lists[addr], i)
}

func (t *table) check(frame int64, reg, addr int) bool {
	i := t.find(frame, reg)
	return i >= 0 && t.slots[i].addr == addr
}

func (t *table) invalidate(addr int) {
	for _, i := range t.lists[addr] {
		t.slots[i].valid = false
		t.free = append(t.free, i)
	}
	delete(t.lists, addr)
}
