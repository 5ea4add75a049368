// Package codegen lowers optimized (out-of-SSA) IR to the EPIC virtual
// machine, translating the speculative load flags produced by SSAPRE's
// CodeMotion into the IA-64-style instructions: AdvLoad → ld.a, CheckLoad
// → ld.c, SpecLoad → ld.s. The advanced load and its checks target the
// same (coalesced) register, which is the ALAT pairing key.
package codegen

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
)

// LowerWorkers compiles a program with at most workers functions lowering
// concurrently (0 = all cores, 1 = serial). The IR must be out of SSA
// form (versions are ignored; each symbol is one register). Each function's code depends
// only on that function's IR, so the emitted program is identical at
// every worker count.
func LowerWorkers(prog *ir.Program, workers int) (*machine.Program, error) {
	fcs, err := par.Map(workers, prog.Funcs, lowerFunc)
	if err != nil {
		return nil, err
	}
	mp := &machine.Program{
		Funcs:      make(map[string]*machine.FuncCode, len(fcs)),
		GlobSize:   prog.GlobSize,
		GlobalInit: prog.GlobalInit,
	}
	for _, fc := range fcs {
		mp.Funcs[fc.Name] = fc
	}
	return mp, nil
}

type fnGen struct {
	fn     *ir.Func
	fc     *machine.FuncCode
	regOf  map[*ir.Sym]int
	starts map[*ir.Block]int
	// branch fixups: instruction index -> target block
	fixups map[int]*ir.Block
}

func lowerFunc(fn *ir.Func) (*machine.FuncCode, error) {
	g := &fnGen{
		fn:     fn,
		fc:     &machine.FuncCode{Name: fn.Name, FrameSize: fn.FrameSize, NumParams: len(fn.Params)},
		regOf:  map[*ir.Sym]int{},
		starts: map[*ir.Block]int{},
		fixups: map[int]*ir.Block{},
	}
	// parameters occupy the first registers, in order
	for _, p := range fn.Params {
		g.reg(p)
	}

	order := layout(fn)
	for idx, b := range order {
		g.starts[b] = len(g.fc.Instrs)
		for _, st := range b.Stmts {
			if err := g.stmt(st); err != nil {
				return nil, err
			}
		}
		var next *ir.Block
		if idx+1 < len(order) {
			next = order[idx+1]
		}
		if err := g.terminator(b, next); err != nil {
			return nil, err
		}
	}
	// resolve branch targets
	for i, blk := range g.fixups {
		tgt, ok := g.starts[blk]
		if !ok {
			return nil, fmt.Errorf("codegen: %s: branch to unplaced block B%d", fn.Name, blk.ID)
		}
		g.fc.Instrs[i].Target = tgt
	}
	g.fc.NumRegs = len(g.regOf)
	return g.fc, nil
}

// layout orders blocks: reverse post-order keeps fallthrough chains hot.
func layout(fn *ir.Func) []*ir.Block {
	return fn.RPO()
}

func (g *fnGen) reg(s *ir.Sym) int {
	if r, ok := g.regOf[s]; ok {
		return r
	}
	r := len(g.regOf)
	g.regOf[s] = r
	return r
}

func (g *fnGen) emit(i machine.Instr) int {
	g.fc.Instrs = append(g.fc.Instrs, i)
	return len(g.fc.Instrs) - 1
}

// scratch allocates a fresh scratch register.
func (g *fnGen) scratch() int {
	s := &ir.Sym{Name: fmt.Sprintf("$s%d", len(g.regOf))}
	return g.reg(s)
}

// operand materializes an operand into a register and reports whether the
// value is floating point.
func (g *fnGen) operand(op ir.Operand) (int, bool, error) {
	switch o := op.(type) {
	case *ir.ConstInt:
		r := g.scratch()
		g.emit(machine.Instr{Op: machine.OpMovI, Rd: r, Imm: o.Val})
		return r, false, nil
	case *ir.ConstFloat:
		r := g.scratch()
		g.emit(machine.Instr{Op: machine.OpMovI, Rd: r, Imm: int64(floatBits(o.Val))})
		return r, true, nil
	case *ir.AddrOf:
		r := g.scratch()
		g.emit(g.leaInstr(r, o.Sym))
		return r, false, nil
	case *ir.Ref:
		if o.Sym.InMemory() {
			return 0, false, fmt.Errorf("codegen: %s: memory symbol %s used as register operand", g.fn.Name, o.Sym.Name)
		}
		return g.reg(o.Sym), o.Sym.Type.IsFloat(), nil
	}
	return 0, false, fmt.Errorf("codegen: unknown operand %T", op)
}

func (g *fnGen) leaInstr(rd int, sym *ir.Sym) machine.Instr {
	if sym.Kind == ir.SymGlobal {
		return machine.Instr{Op: machine.OpLEA, Rd: rd, Imm: int64(sym.Addr)}
	}
	return machine.Instr{Op: machine.OpLEA, Rd: rd, Imm: int64(sym.Addr), IsFrame: true}
}

// loadOp picks the load opcode from element type and speculation flags.
func loadOp(isFloat bool, flags ir.SpecFlags) machine.Opcode {
	switch {
	case flags.CheckLoad:
		if isFloat {
			return machine.OpLdFC
		}
		return machine.OpLdC
	case flags.AdvLoad && flags.SpecLoad:
		if isFloat {
			return machine.OpLdFSA
		}
		return machine.OpLdSA
	case flags.AdvLoad:
		if isFloat {
			return machine.OpLdFA
		}
		return machine.OpLdA
	case flags.SpecLoad:
		if isFloat {
			return machine.OpLdFS
		}
		return machine.OpLdS
	default:
		if isFloat {
			return machine.OpLdF
		}
		return machine.OpLd
	}
}

func (g *fnGen) stmt(st ir.Stmt) error {
	switch t := st.(type) {
	case *ir.Assign:
		return g.assign(t)
	case *ir.IStore:
		ra, _, err := g.operand(t.Addr)
		if err != nil {
			return err
		}
		rv, vFloat, err := g.operand(t.Val)
		if err != nil {
			return err
		}
		op := machine.OpSt
		if vFloat || (t.StoresTo != nil && t.StoresTo.IsFloat()) {
			op = machine.OpStF
		}
		g.emit(machine.Instr{Op: op, Rd: ra, Rs: rv})
		return nil
	case *ir.Call:
		if t.Fn == "arg" {
			rs, _, err := g.operand(t.Args[0])
			if err != nil {
				return err
			}
			rd := -1
			if t.Dst != nil {
				rd = g.reg(t.Dst.Sym)
			}
			g.emit(machine.Instr{Op: machine.OpArg, Rd: rd, Rs: rs})
			return nil
		}
		var argRegs []int
		for _, a := range t.Args {
			r, _, err := g.operand(a)
			if err != nil {
				return err
			}
			argRegs = append(argRegs, r)
		}
		rd := -1
		if t.Dst != nil {
			rd = g.reg(t.Dst.Sym)
		}
		g.emit(machine.Instr{Op: machine.OpCall, Rd: rd, Fn: t.Fn, ArgRegs: argRegs})
		return nil
	case *ir.Print:
		var regsList []int
		var floats []bool
		for _, a := range t.Args {
			r, isF, err := g.operand(a)
			if err != nil {
				return err
			}
			regsList = append(regsList, r)
			floats = append(floats, isF || a.Type().IsFloat())
		}
		g.emit(machine.Instr{Op: machine.OpPrint, ArgRegs: regsList, FloatRs: floats})
		return nil
	}
	return fmt.Errorf("codegen: unknown statement %T", st)
}

func (g *fnGen) assign(a *ir.Assign) error {
	// direct store: dst is memory-resident
	if a.Dst.Sym.InMemory() {
		if a.RK != ir.RHSCopy {
			return fmt.Errorf("codegen: direct store with non-copy RHS in %s", g.fn.Name)
		}
		rv, vFloat, err := g.operand(a.A)
		if err != nil {
			return err
		}
		ra := g.scratch()
		g.emit(g.leaInstr(ra, a.Dst.Sym))
		op := machine.OpSt
		if vFloat || a.Dst.Sym.Type.IsFloat() {
			op = machine.OpStF
		}
		g.emit(machine.Instr{Op: op, Rd: ra, Rs: rv})
		return nil
	}

	rd := g.reg(a.Dst.Sym)
	switch a.RK {
	case ir.RHSCopy:
		// direct load of a memory scalar?
		if r, ok := a.A.(*ir.Ref); ok && r.Sym.InMemory() {
			ra := g.scratch()
			g.emit(g.leaInstr(ra, r.Sym))
			isF := r.Sym.Type.IsFloat()
			g.emit(machine.Instr{Op: loadOp(isF, a.Spec), Rd: rd, Rs: ra})
			return nil
		}
		switch src := a.A.(type) {
		case *ir.ConstInt:
			g.emit(machine.Instr{Op: machine.OpMovI, Rd: rd, Imm: src.Val})
		case *ir.ConstFloat:
			g.emit(machine.Instr{Op: machine.OpMovI, Rd: rd, Imm: int64(floatBits(src.Val))})
		case *ir.AddrOf:
			g.emit(g.leaInstr(rd, src.Sym))
		case *ir.Ref:
			if rs := g.reg(src.Sym); rs != rd {
				g.emit(machine.Instr{Op: machine.OpMov, Rd: rd, Rs: rs})
			}
		}
		return nil

	case ir.RHSUnary:
		rs, isF, err := g.operand(a.A)
		if err != nil {
			return err
		}
		var op machine.Opcode
		switch a.Op {
		case ir.OpNeg:
			if isF {
				op = machine.OpFNeg
			} else {
				op = machine.OpNeg
			}
		case ir.OpNot:
			op = machine.OpNot
		case ir.OpIntToFloat:
			op = machine.OpI2F
		case ir.OpFloatToInt:
			op = machine.OpF2I
		default:
			return fmt.Errorf("codegen: unary op %v", a.Op)
		}
		g.emit(machine.Instr{Op: op, Rd: rd, Rs: rs})
		return nil

	case ir.RHSBinary:
		rs, aF, err := g.operand(a.A)
		if err != nil {
			return err
		}
		rt, bF, err := g.operand(a.B)
		if err != nil {
			return err
		}
		isF := aF || bF
		op, err := binOpcode(a.Op, isF)
		if err != nil {
			return fmt.Errorf("codegen: %v in %s", err, g.fn.Name)
		}
		g.emit(machine.Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})
		return nil

	case ir.RHSLoad:
		ra, _, err := g.operand(a.A)
		if err != nil {
			return err
		}
		isF := a.Dst.Sym.Type.IsFloat() || (a.LoadsFrom != nil && a.LoadsFrom.IsFloat())
		g.emit(machine.Instr{Op: loadOp(isF, a.Spec), Rd: rd, Rs: ra})
		return nil

	case ir.RHSAlloc:
		rs, _, err := g.operand(a.A)
		if err != nil {
			return err
		}
		g.emit(machine.Instr{Op: machine.OpAlloc, Rd: rd, Rs: rs})
		return nil
	}
	return fmt.Errorf("codegen: unknown RHS kind %d", a.RK)
}

func binOpcode(op ir.Op, isFloat bool) (machine.Opcode, error) {
	if isFloat {
		switch op {
		case ir.OpAdd:
			return machine.OpFAdd, nil
		case ir.OpSub:
			return machine.OpFSub, nil
		case ir.OpMul:
			return machine.OpFMul, nil
		case ir.OpDiv:
			return machine.OpFDiv, nil
		case ir.OpEq:
			return machine.OpFCmpEQ, nil
		case ir.OpNe:
			return machine.OpFCmpNE, nil
		case ir.OpLt:
			return machine.OpFCmpLT, nil
		case ir.OpLe:
			return machine.OpFCmpLE, nil
		case ir.OpGt:
			return machine.OpFCmpGT, nil
		case ir.OpGe:
			return machine.OpFCmpGE, nil
		}
		return machine.OpNop, fmt.Errorf("float op %v", op)
	}
	switch op {
	case ir.OpAdd:
		return machine.OpAdd, nil
	case ir.OpSub:
		return machine.OpSub, nil
	case ir.OpMul:
		return machine.OpMul, nil
	case ir.OpDiv:
		return machine.OpDiv, nil
	case ir.OpMod:
		return machine.OpMod, nil
	case ir.OpAnd:
		return machine.OpAnd, nil
	case ir.OpOr:
		return machine.OpOr, nil
	case ir.OpXor:
		return machine.OpXor, nil
	case ir.OpShl:
		return machine.OpShl, nil
	case ir.OpShr:
		return machine.OpShr, nil
	case ir.OpEq:
		return machine.OpCmpEQ, nil
	case ir.OpNe:
		return machine.OpCmpNE, nil
	case ir.OpLt:
		return machine.OpCmpLT, nil
	case ir.OpLe:
		return machine.OpCmpLE, nil
	case ir.OpGt:
		return machine.OpCmpGT, nil
	case ir.OpGe:
		return machine.OpCmpGE, nil
	}
	return machine.OpNop, fmt.Errorf("int op %v", op)
}

func (g *fnGen) terminator(b *ir.Block, next *ir.Block) error {
	switch b.Term.Kind {
	case ir.TermJump:
		if len(b.Succs) == 1 && b.Succs[0] != next {
			i := g.emit(machine.Instr{Op: machine.OpBr})
			g.fixups[i] = b.Succs[0]
		}
	case ir.TermCond:
		r, _, err := g.operand(b.Term.Cond)
		if err != nil {
			return err
		}
		if b.Succs[1] == next {
			i := g.emit(machine.Instr{Op: machine.OpBnez, Rs: r})
			g.fixups[i] = b.Succs[0]
		} else if b.Succs[0] == next {
			i := g.emit(machine.Instr{Op: machine.OpBeqz, Rs: r})
			g.fixups[i] = b.Succs[1]
		} else {
			i := g.emit(machine.Instr{Op: machine.OpBnez, Rs: r})
			g.fixups[i] = b.Succs[0]
			j := g.emit(machine.Instr{Op: machine.OpBr})
			g.fixups[j] = b.Succs[1]
		}
	case ir.TermRet:
		if b.Term.Val != nil {
			r, _, err := g.operand(b.Term.Val)
			if err != nil {
				return err
			}
			g.emit(machine.Instr{Op: machine.OpRet, Rs: r})
			return nil
		}
		g.emit(machine.Instr{Op: machine.OpRet, Rs: -1})
	}
	return nil
}

func floatBits(f float64) uint64 {
	return math.Float64bits(f)
}
