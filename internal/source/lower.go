package source

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Lower type-checks a parsed File and translates it to the flattened IR.
// Every generated statement is first-order: operands are constants,
// register-resident variable references, or symbol addresses; memory reads
// and writes are explicit load/store statements. This is the shape SSAPRE
// processes directly.
func Lower(f *File) (*ir.Program, error) {
	lw := &lowerer{
		prog:    ir.NewProgram(),
		globals: map[string]*ir.Sym{},
		funcs:   map[string]*FuncDecl{},
	}
	for _, g := range f.Globals {
		if _, dup := lw.globals[g.Name]; dup {
			return nil, &Error{Line: g.Line, Msg: fmt.Sprintf("global %q redeclared", g.Name)}
		}
		lw.globals[g.Name] = lw.prog.NewGlobal(g.Name, g.Type)
	}
	for _, fd := range f.Funcs {
		if _, dup := lw.funcs[fd.Name]; dup {
			return nil, &Error{Line: fd.Line, Msg: fmt.Sprintf("function %q redeclared", fd.Name)}
		}
		lw.funcs[fd.Name] = fd
	}
	// Global initializers must be constants; they populate the initial
	// global segment image.
	for _, g := range f.Globals {
		if g.Init == nil {
			continue
		}
		sym := lw.globals[g.Name]
		val, isFloat, ok := constFold(g.Init)
		if !ok {
			return nil, &Error{Line: g.Line, Msg: fmt.Sprintf("global %q initializer is not constant", g.Name)}
		}
		switch {
		case sym.Type.Kind == ir.KFloat:
			fv := val
			if !isFloat {
				fv = float64(int64(val))
			}
			lw.prog.GlobalInit[sym.Addr] = math.Float64bits(fv)
		case sym.Type.IsScalar():
			lw.prog.GlobalInit[sym.Addr] = uint64(int64(val))
		default:
			return nil, &Error{Line: g.Line, Msg: fmt.Sprintf("global %q: aggregate initializers are not supported", g.Name)}
		}
	}
	for _, fd := range f.Funcs {
		if err := lw.lowerFunc(fd); err != nil {
			return nil, err
		}
	}
	if _, ok := lw.prog.FuncMap["main"]; !ok {
		return nil, &Error{Msg: "program has no main function"}
	}
	for _, fn := range lw.prog.Funcs {
		fn.RemoveUnreachable()
		legalize(fn)
		fn.AssignFrameOffsets()
		if err := ir.Verify(fn); err != nil {
			return nil, fmt.Errorf("lowering produced invalid IR: %w", err)
		}
	}
	return lw.prog, nil
}

func constFold(e Expr) (val float64, isFloat, ok bool) {
	switch x := e.(type) {
	case *IntLit:
		return float64(x.Val), false, true
	case *FloatLit:
		return x.Val, true, true
	case *Unary:
		if x.Op == "-" {
			v, isf, ok := constFold(x.X)
			return -v, isf, ok
		}
	}
	return 0, false, false
}

type lowerer struct {
	prog    *ir.Program
	globals map[string]*ir.Sym
	funcs   map[string]*FuncDecl

	fn     *ir.Func
	cur    *ir.Block
	scopes []map[string]*ir.Sym

	breaks []*ir.Block
	conts  []*ir.Block
}

func (lw *lowerer) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]*ir.Sym{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) declare(name string, sym *ir.Sym, line int) error {
	top := lw.scopes[len(lw.scopes)-1]
	if _, dup := top[name]; dup {
		return lw.errf(line, "%q redeclared in this scope", name)
	}
	top[name] = sym
	return nil
}

func (lw *lowerer) lookup(name string) *ir.Sym {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if s, ok := lw.scopes[i][name]; ok {
			return s
		}
	}
	return lw.globals[name]
}

// emit appends a statement to the current block.
func (lw *lowerer) emit(s ir.Stmt) {
	lw.cur.Stmts = append(lw.cur.Stmts, s)
}

// setTerm finishes the current block and leaves lw.cur nil until startBlock.
func (lw *lowerer) jump(to *ir.Block) {
	if lw.cur == nil {
		return
	}
	lw.cur.Term = ir.Term{Kind: ir.TermJump}
	ir.Connect(lw.cur, to)
	lw.cur = nil
}

func (lw *lowerer) condJump(cond ir.Operand, t, f *ir.Block) {
	lw.cur.Term = ir.Term{Kind: ir.TermCond, Cond: cond}
	ir.Connect(lw.cur, t)
	ir.Connect(lw.cur, f)
	lw.cur = nil
}

func (lw *lowerer) lowerFunc(fd *FuncDecl) error {
	fn := lw.prog.NewFunc(fd.Name, fd.Ret)
	lw.fn = fn
	lw.scopes = nil
	lw.pushScope()
	for _, p := range fd.Params {
		sym := fn.NewSym(p.Name, p.Type, ir.SymParam)
		if err := lw.declare(p.Name, sym, fd.Line); err != nil {
			return err
		}
	}
	fn.Entry = fn.NewBlock()
	fn.Exit = fn.NewBlock()
	fn.Exit.Term = ir.Term{Kind: ir.TermRet}
	lw.cur = fn.Entry
	if err := lw.stmt(fd.Body); err != nil {
		return err
	}
	// Fall off the end: return zero for value-returning functions, plain
	// return otherwise.
	if lw.cur != nil {
		if fd.Ret.Kind == ir.KVoid {
			lw.cur.Term = ir.Term{Kind: ir.TermRet}
		} else {
			lw.cur.Term = ir.Term{Kind: ir.TermRet, Val: zeroOf(fd.Ret)}
		}
	}
	lw.popScope()
	return nil
}

func zeroOf(t *ir.Type) ir.Operand {
	if t.Kind == ir.KFloat {
		return ir.FloatConst(0)
	}
	return ir.IntConst(0)
}

func (lw *lowerer) stmt(s Stmt) error {
	if lw.cur == nil {
		// unreachable code after return/break; lower into a detached block
		lw.cur = lw.fn.NewBlock()
		lw.cur.Term = ir.Term{Kind: ir.TermRet}
	}
	switch st := s.(type) {
	case *BlockStmt:
		lw.pushScope()
		for _, inner := range st.List {
			if err := lw.stmt(inner); err != nil {
				return err
			}
		}
		lw.popScope()
		return nil
	case *DeclStmt:
		return lw.declStmt(st.Decl)
	case *ExprStmt:
		return lw.exprStmt(st.X, st.Line)
	case *IfStmt:
		return lw.ifStmt(st)
	case *WhileStmt:
		return lw.whileStmt(st)
	case *ForStmt:
		return lw.forStmt(st)
	case *ReturnStmt:
		return lw.returnStmt(st)
	case *BreakStmt:
		if len(lw.breaks) == 0 {
			return lw.errf(st.Line, "break outside loop")
		}
		lw.jump(lw.breaks[len(lw.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(lw.conts) == 0 {
			return lw.errf(st.Line, "continue outside loop")
		}
		lw.jump(lw.conts[len(lw.conts)-1])
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

func (lw *lowerer) declStmt(d *VarDecl) error {
	sym := lw.fn.NewSym(d.Name, d.Type, ir.SymLocal)
	if err := lw.declare(d.Name, sym, d.Line); err != nil {
		return err
	}
	if d.Init != nil {
		if !d.Type.IsScalar() {
			return lw.errf(d.Line, "cannot initialize aggregate %q", d.Name)
		}
		val, err := lw.rvalue(d.Init)
		if err != nil {
			return err
		}
		val, err = lw.convert(val, d.Type, d.Line)
		if err != nil {
			return err
		}
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(sym, 0), RK: ir.RHSCopy, A: val}))
	}
	return nil
}

func (lw *lowerer) exprStmt(x Expr, line int) error {
	switch e := x.(type) {
	case *AssignExpr:
		return lw.assign(e)
	case *IncDec:
		op := "+"
		if e.Op == "--" {
			op = "-"
		}
		return lw.assign(&AssignExpr{Op: op, LHS: e.X, RHS: &IntLit{Val: 1, Line: e.Line}, Line: e.Line})
	case *CallExpr:
		_, err := lw.call(e, true)
		return err
	default:
		// evaluate for effect (there are none, but keep it legal)
		_, err := lw.rvalue(x)
		return err
	}
}

// lvalue is the result of lowering an assignable expression: either a
// direct variable or a computed address.
type lvalue struct {
	sym  *ir.Sym    // non-nil for direct variable access
	addr ir.Operand // non-nil for indirect access
	typ  *ir.Type   // type of the referenced object
}

func (lw *lowerer) assign(e *AssignExpr) error {
	lv, err := lw.lvalue(e.LHS)
	if err != nil {
		return err
	}
	if !lv.typ.IsScalar() {
		return lw.errf(e.Line, "cannot assign to aggregate")
	}
	var rhs ir.Operand
	if e.Op == "" {
		rhs, err = lw.rvalue(e.RHS)
		if err != nil {
			return err
		}
	} else {
		// compound assignment: read, combine, write
		cur, err := lw.readLValue(lv, e.Line)
		if err != nil {
			return err
		}
		r, err := lw.rvalue(e.RHS)
		if err != nil {
			return err
		}
		op, err := binOp(e.Op, e.Line)
		if err != nil {
			return err
		}
		rhs, err = lw.binary(op, cur, r, e.Line)
		if err != nil {
			return err
		}
	}
	rhs, err = lw.convert(rhs, lv.typ, e.Line)
	if err != nil {
		return err
	}
	if lv.sym != nil {
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(lv.sym, 0), RK: ir.RHSCopy, A: rhs}))
		return nil
	}
	lw.emit(lw.fn.NewIStore(ir.IStore{Addr: lv.addr, Val: rhs, StoresTo: lv.typ, Site: lw.prog.NextSite()}))
	return nil
}

// readLValue loads the current value of an lvalue into an operand.
func (lw *lowerer) readLValue(lv lvalue, line int) (ir.Operand, error) {
	if lv.sym != nil {
		return lw.readVar(lv.sym), nil
	}
	t := lw.fn.NewTemp(lv.typ)
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSLoad, A: lv.addr, LoadsFrom: lv.typ, Site: lw.prog.NextSite()}))
	return lw.fn.NewRef(t, 0), nil
}

// readVar produces an operand holding the value of a variable. Reads of
// memory-resident scalars become explicit load statements so that each
// occurrence is visible to PRE; register-resident variables are used
// directly.
func (lw *lowerer) readVar(sym *ir.Sym) ir.Operand {
	if sym.Kind == ir.SymGlobal {
		// Globals are always memory-resident: emit a direct load.
		t := lw.fn.NewTemp(sym.Type)
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSCopy, A: lw.fn.NewRef(sym, 0), LoadsFrom: sym.Type}))
		return lw.fn.NewRef(t, 0)
	}
	// Locals: whether the symbol ends up memory-resident depends on
	// AddrTaken, which is only final after the whole function is lowered.
	// Using the Ref directly is correct either way: later phases treat a
	// Ref to a memory-resident scalar in RHSCopy position as a load.
	return lw.fn.NewRef(sym, 0)
}

func (lw *lowerer) lvalue(e Expr) (lvalue, error) {
	switch x := e.(type) {
	case *Ident:
		sym := lw.lookup(x.Name)
		if sym == nil {
			return lvalue{}, lw.errf(x.Line, "undefined variable %q", x.Name)
		}
		return lvalue{sym: sym, typ: sym.Type}, nil
	case *Unary:
		if x.Op == "*" {
			p, err := lw.rvalue(x.X)
			if err != nil {
				return lvalue{}, err
			}
			pt := p.Type()
			if pt.Kind != ir.KPtr {
				return lvalue{}, lw.errf(x.Line, "cannot dereference non-pointer type %s", pt)
			}
			return lvalue{addr: p, typ: pt.Elem}, nil
		}
	case *Index:
		return lw.indexLValue(x)
	case *FieldSel:
		return lw.fieldLValue(x)
	}
	return lvalue{}, lw.errf(exprLine(e), "expression is not assignable")
}

func exprLine(e Expr) int {
	switch x := e.(type) {
	case *IntLit:
		return x.Line
	case *FloatLit:
		return x.Line
	case *Ident:
		return x.Line
	case *Unary:
		return x.Line
	case *Binary:
		return x.Line
	case *AssignExpr:
		return x.Line
	case *IncDec:
		return x.Line
	case *CallExpr:
		return x.Line
	case *Index:
		return x.Line
	case *FieldSel:
		return x.Line
	case *Cast:
		return x.Line
	}
	return 0
}

// baseAddress lowers an expression to (address operand, element type) for
// indexing: arrays decay to their base address, pointers to their value.
func (lw *lowerer) baseAddress(e Expr) (ir.Operand, *ir.Type, error) {
	// Array-typed lvalues decay without loading.
	if lv, err := lw.tryAggregateBase(e); err != nil {
		return nil, nil, err
	} else if lv != nil {
		if lv.typ.Kind == ir.KArray {
			addr, err := lw.addressOf(*lv, exprLine(e))
			if err != nil {
				return nil, nil, err
			}
			return addr, lv.typ.Elem, nil
		}
	}
	p, err := lw.rvalue(e)
	if err != nil {
		return nil, nil, err
	}
	pt := p.Type()
	switch pt.Kind {
	case ir.KPtr:
		return p, pt.Elem, nil
	default:
		return nil, nil, lw.errf(exprLine(e), "cannot index value of type %s", pt)
	}
}

// tryAggregateBase returns the lvalue of e if e denotes an array- or
// struct-typed object (which cannot be loaded as an rvalue), else nil.
func (lw *lowerer) tryAggregateBase(e Expr) (*lvalue, error) {
	switch x := e.(type) {
	case *Ident:
		sym := lw.lookup(x.Name)
		if sym != nil && !sym.Type.IsScalar() {
			lv := lvalue{sym: sym, typ: sym.Type}
			return &lv, nil
		}
	case *Index:
		// e.g. A[i] where A is an array of arrays
		lv, err := lw.indexLValue(x)
		if err != nil {
			return nil, err
		}
		if !lv.typ.IsScalar() {
			return &lv, nil
		}
		// fallthrough: scalar element, caller should treat as rvalue —
		// but we already emitted the address computation. Return nil and
		// let rvalue() recompute; index lowering is pure so this only
		// duplicates arithmetic, which PRE cleans up.
	case *FieldSel:
		lv, err := lw.fieldLValue(x)
		if err != nil {
			return nil, err
		}
		if !lv.typ.IsScalar() {
			return &lv, nil
		}
	}
	return nil, nil
}

// addressOf materializes the address of an lvalue as an operand.
func (lw *lowerer) addressOf(lv lvalue, line int) (ir.Operand, error) {
	if lv.addr != nil {
		return lv.addr, nil
	}
	sym := lv.sym
	if sym.Kind == ir.SymTemp {
		return nil, lw.errf(line, "cannot take address of temporary")
	}
	sym.AddrTaken = true
	return lw.fn.NewAddrOf(sym), nil
}

func (lw *lowerer) indexLValue(x *Index) (lvalue, error) {
	base, elem, err := lw.baseAddress(x.X)
	if err != nil {
		return lvalue{}, err
	}
	idx, err := lw.rvalue(x.I)
	if err != nil {
		return lvalue{}, err
	}
	if idx.Type().Kind != ir.KInt {
		return lvalue{}, lw.errf(x.Line, "array index must be int, have %s", idx.Type())
	}
	// addr = base + idx*size(elem)
	scaled := idx
	if sz := elem.Size(); sz != 1 {
		t := lw.fn.NewTemp(ir.IntType)
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSBinary, Op: ir.OpMul, A: idx, B: ir.IntConst(int64(sz))}))
		scaled = lw.fn.NewRef(t, 0)
	}
	t := lw.fn.NewTemp(ir.PtrTo(elem))
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSBinary, Op: ir.OpAdd, A: base, B: scaled}))
	return lvalue{addr: lw.fn.NewRef(t, 0), typ: elem}, nil
}

func (lw *lowerer) fieldLValue(x *FieldSel) (lvalue, error) {
	var base ir.Operand
	var st *ir.Type
	if x.Arrow {
		p, err := lw.rvalue(x.X)
		if err != nil {
			return lvalue{}, err
		}
		pt := p.Type()
		if pt.Kind != ir.KPtr || pt.Elem.Kind != ir.KStruct {
			return lvalue{}, lw.errf(x.Line, "-> on non-struct-pointer type %s", pt)
		}
		base, st = p, pt.Elem
	} else {
		lv, err := lw.tryAggregateBase(x.X)
		if err != nil {
			return lvalue{}, err
		}
		if lv == nil || lv.typ.Kind != ir.KStruct {
			return lvalue{}, lw.errf(x.Line, ". on non-struct value")
		}
		addr, err := lw.addressOf(*lv, x.Line)
		if err != nil {
			return lvalue{}, err
		}
		base, st = addr, lv.typ
	}
	fld, ok := st.FieldByName(x.Name)
	if !ok {
		return lvalue{}, lw.errf(x.Line, "struct %s has no field %q", st.Name, x.Name)
	}
	t := lw.fn.NewTemp(ir.PtrTo(fld.Type))
	if fld.Off != 0 {
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSBinary, Op: ir.OpAdd, A: base, B: ir.IntConst(int64(fld.Off))}))
	} else {
		// offset 0: same address, but the static type becomes a pointer
		// to the field
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSCopy, A: base}))
	}
	return lvalue{addr: lw.fn.NewRef(t, 0), typ: fld.Type}, nil
}

// rvalue lowers an expression to a leaf operand, emitting statements for
// any computation.
func (lw *lowerer) rvalue(e Expr) (ir.Operand, error) {
	switch x := e.(type) {
	case *IntLit:
		return ir.IntConst(x.Val), nil
	case *FloatLit:
		return ir.FloatConst(x.Val), nil
	case *Ident:
		sym := lw.lookup(x.Name)
		if sym == nil {
			return nil, lw.errf(x.Line, "undefined variable %q", x.Name)
		}
		if !sym.Type.IsScalar() {
			// array decays to pointer
			if sym.Type.Kind == ir.KArray {
				sym.AddrTaken = true
				return lw.fn.NewAddrOf(sym), nil
			}
			return nil, lw.errf(x.Line, "cannot use aggregate %q as a value", x.Name)
		}
		return lw.readVar(sym), nil
	case *Unary:
		return lw.unary(x)
	case *Binary:
		return lw.binaryExpr(x)
	case *CallExpr:
		return lw.call(x, false)
	case *Index:
		lv, err := lw.indexLValue(x)
		if err != nil {
			return nil, err
		}
		if !lv.typ.IsScalar() {
			// sub-array or struct element decays to its address
			return lv.addr, nil
		}
		return lw.readLValue(lv, x.Line)
	case *FieldSel:
		lv, err := lw.fieldLValue(x)
		if err != nil {
			return nil, err
		}
		if !lv.typ.IsScalar() {
			return lv.addr, nil
		}
		return lw.readLValue(lv, x.Line)
	case *Cast:
		return lw.cast(x)
	case *AssignExpr:
		return nil, lw.errf(x.Line, "assignment cannot be used as a value")
	case *IncDec:
		return nil, lw.errf(x.Line, "%s cannot be used as a value", x.Op)
	}
	return nil, fmt.Errorf("minic: unknown expression %T", e)
}

func (lw *lowerer) unary(x *Unary) (ir.Operand, error) {
	switch x.Op {
	case "-":
		v, err := lw.rvalue(x.X)
		if err != nil {
			return nil, err
		}
		t := lw.fn.NewTemp(v.Type())
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSUnary, Op: ir.OpNeg, A: v}))
		return lw.fn.NewRef(t, 0), nil
	case "!":
		v, err := lw.rvalue(x.X)
		if err != nil {
			return nil, err
		}
		t := lw.fn.NewTemp(ir.IntType)
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSUnary, Op: ir.OpNot, A: v}))
		return lw.fn.NewRef(t, 0), nil
	case "*":
		lv, err := lw.lvalue(x)
		if err != nil {
			return nil, err
		}
		if !lv.typ.IsScalar() {
			return lv.addr, nil
		}
		return lw.readLValue(lv, x.Line)
	case "&":
		lv, err := lw.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		return lw.addressOf(lv, x.Line)
	}
	return nil, lw.errf(x.Line, "unknown unary operator %q", x.Op)
}

func binOp(op string, line int) (ir.Op, error) {
	switch op {
	case "+":
		return ir.OpAdd, nil
	case "-":
		return ir.OpSub, nil
	case "*":
		return ir.OpMul, nil
	case "/":
		return ir.OpDiv, nil
	case "%":
		return ir.OpMod, nil
	case "==":
		return ir.OpEq, nil
	case "!=":
		return ir.OpNe, nil
	case "<":
		return ir.OpLt, nil
	case "<=":
		return ir.OpLe, nil
	case ">":
		return ir.OpGt, nil
	case ">=":
		return ir.OpGe, nil
	case "&":
		return ir.OpAnd, nil
	case "|":
		return ir.OpOr, nil
	case "^":
		return ir.OpXor, nil
	case "<<":
		return ir.OpShl, nil
	case ">>":
		return ir.OpShr, nil
	}
	return ir.OpNone, &Error{Line: line, Msg: fmt.Sprintf("unknown operator %q", op)}
}

func (lw *lowerer) binaryExpr(x *Binary) (ir.Operand, error) {
	if x.Op == "&&" || x.Op == "||" {
		return lw.shortCircuit(x)
	}
	l, err := lw.rvalue(x.L)
	if err != nil {
		return nil, err
	}
	r, err := lw.rvalue(x.R)
	if err != nil {
		return nil, err
	}
	op, err := binOp(x.Op, x.Line)
	if err != nil {
		return nil, err
	}
	return lw.binary(op, l, r, x.Line)
}

// binary emits a first-order binary operation with numeric promotion and
// pointer-arithmetic scaling.
func (lw *lowerer) binary(op ir.Op, l, r ir.Operand, line int) (ir.Operand, error) {
	lt, rt := l.Type(), r.Type()
	resType := ir.IntType
	switch {
	case lt.Kind == ir.KPtr || rt.Kind == ir.KPtr:
		// pointer arithmetic: ptr±int (scaled by element size) and ptr-ptr
		if op == ir.OpAdd || op == ir.OpSub {
			if lt.Kind == ir.KPtr && rt.Kind == ir.KInt {
				r = lw.scaleIndex(r, lt.Elem)
				resType = lt
			} else if lt.Kind == ir.KInt && rt.Kind == ir.KPtr && op == ir.OpAdd {
				l = lw.scaleIndex(l, rt.Elem)
				resType = rt
			} else if lt.Kind == ir.KPtr && rt.Kind == ir.KPtr && op == ir.OpSub {
				resType = ir.IntType
			} else {
				return nil, lw.errf(line, "invalid pointer arithmetic %s %s %s", lt, op, rt)
			}
		} else if op.IsComparison() {
			resType = ir.IntType
		} else {
			return nil, lw.errf(line, "invalid pointer operation %s", op)
		}
	case lt.Kind == ir.KFloat || rt.Kind == ir.KFloat:
		var err error
		l, err = lw.convert(l, ir.FloatType, line)
		if err != nil {
			return nil, err
		}
		r, err = lw.convert(r, ir.FloatType, line)
		if err != nil {
			return nil, err
		}
		if op.IsComparison() {
			resType = ir.IntType
		} else {
			if op == ir.OpMod || op == ir.OpAnd || op == ir.OpOr || op == ir.OpXor || op == ir.OpShl || op == ir.OpShr {
				return nil, lw.errf(line, "operator %s not defined on double", op)
			}
			resType = ir.FloatType
		}
	default:
		resType = ir.IntType
	}
	t := lw.fn.NewTemp(resType)
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSBinary, Op: op, A: l, B: r}))
	return lw.fn.NewRef(t, 0), nil
}

func (lw *lowerer) scaleIndex(idx ir.Operand, elem *ir.Type) ir.Operand {
	sz := elem.Size()
	if sz == 1 {
		return idx
	}
	t := lw.fn.NewTemp(ir.IntType)
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSBinary, Op: ir.OpMul, A: idx, B: ir.IntConst(int64(sz))}))
	return lw.fn.NewRef(t, 0)
}

// shortCircuit lowers && and || with control flow into a 0/1 temporary.
func (lw *lowerer) shortCircuit(x *Binary) (ir.Operand, error) {
	res := lw.fn.NewTemp(ir.IntType)
	evalR := lw.fn.NewBlock()
	short := lw.fn.NewBlock()
	join := lw.fn.NewBlock()

	l, err := lw.rvalue(x.L)
	if err != nil {
		return nil, err
	}
	if x.Op == "&&" {
		lw.condJump(l, evalR, short)
	} else {
		lw.condJump(l, short, evalR)
	}

	lw.cur = short
	var shortVal int64
	if x.Op == "||" {
		shortVal = 1
	}
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(res, 0), RK: ir.RHSCopy, A: ir.IntConst(shortVal)}))
	lw.jump(join)

	lw.cur = evalR
	r, err := lw.rvalue(x.R)
	if err != nil {
		return nil, err
	}
	// normalize to 0/1
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(res, 0), RK: ir.RHSBinary, Op: ir.OpNe, A: r, B: zeroOf(r.Type())}))
	lw.jump(join)

	lw.cur = join
	return lw.fn.NewRef(res, 0), nil
}

// convert coerces an operand to the target type, inserting conversions.
func (lw *lowerer) convert(v ir.Operand, to *ir.Type, line int) (ir.Operand, error) {
	from := v.Type()
	if from.Equal(to) {
		return v, nil
	}
	switch {
	case from.Kind == ir.KInt && to.Kind == ir.KFloat:
		if c, ok := v.(*ir.ConstInt); ok {
			return ir.FloatConst(float64(c.Val)), nil
		}
		t := lw.fn.NewTemp(ir.FloatType)
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSUnary, Op: ir.OpIntToFloat, A: v}))
		return lw.fn.NewRef(t, 0), nil
	case from.Kind == ir.KFloat && to.Kind == ir.KInt:
		if c, ok := v.(*ir.ConstFloat); ok {
			return ir.IntConst(int64(c.Val)), nil
		}
		t := lw.fn.NewTemp(ir.IntType)
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSUnary, Op: ir.OpFloatToInt, A: v}))
		return lw.fn.NewRef(t, 0), nil
	case from.Kind == ir.KPtr && to.Kind == ir.KPtr:
		// void* (malloc) converts freely; other pointer conversions need a cast
		if from.Elem.Kind == ir.KVoid || to.Elem.Kind == ir.KVoid {
			return retype(lw, v, to), nil
		}
		return nil, lw.errf(line, "cannot convert %s to %s without a cast", from, to)
	case from.Kind == ir.KPtr && to.Kind == ir.KInt, from.Kind == ir.KInt && to.Kind == ir.KPtr:
		return nil, lw.errf(line, "cannot mix pointer and int without a cast (%s vs %s)", from, to)
	}
	return nil, lw.errf(line, "cannot convert %s to %s", from, to)
}

// retype produces an operand with the same value but a different static
// type (pointer casts). It copies through a temp so types stay accurate.
func retype(lw *lowerer, v ir.Operand, to *ir.Type) ir.Operand {
	t := lw.fn.NewTemp(to)
	lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSCopy, A: v}))
	return lw.fn.NewRef(t, 0)
}

func (lw *lowerer) cast(x *Cast) (ir.Operand, error) {
	v, err := lw.rvalue(x.X)
	if err != nil {
		return nil, err
	}
	from := v.Type()
	to := x.Type
	switch {
	case from.Equal(to):
		return v, nil
	case from.Kind == ir.KInt && to.Kind == ir.KFloat,
		from.Kind == ir.KFloat && to.Kind == ir.KInt:
		return lw.convert(v, to, x.Line)
	case from.Kind == ir.KPtr && to.Kind == ir.KPtr:
		return retype(lw, v, to), nil
	case from.Kind == ir.KInt && to.Kind == ir.KPtr,
		from.Kind == ir.KPtr && to.Kind == ir.KInt:
		return retype(lw, v, to), nil
	}
	return nil, lw.errf(x.Line, "invalid cast from %s to %s", from, to)
}

// call lowers a function call. stmtPos is true when the value is discarded.
func (lw *lowerer) call(x *CallExpr, stmtPos bool) (ir.Operand, error) {
	switch x.Name {
	case "malloc":
		if len(x.Args) != 1 {
			return nil, lw.errf(x.Line, "malloc takes one argument (slot count)")
		}
		n, err := lw.rvalue(x.Args[0])
		if err != nil {
			return nil, err
		}
		if n.Type().Kind != ir.KInt {
			return nil, lw.errf(x.Line, "malloc size must be int")
		}
		t := lw.fn.NewTemp(ir.PtrTo(ir.VoidType))
		lw.emit(lw.fn.NewAssign(ir.Assign{Dst: lw.fn.NewRef(t, 0), RK: ir.RHSAlloc, A: n, AllocSite: lw.prog.NextSite()}))
		return lw.fn.NewRef(t, 0), nil
	case "print":
		var args []ir.Operand
		for _, a := range x.Args {
			v, err := lw.rvalue(a)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		lw.emit(lw.fn.NewPrint(ir.Print{Args: args}))
		if !stmtPos {
			return nil, lw.errf(x.Line, "print used as a value")
		}
		return nil, nil
	case "arg":
		// arg(i): the i-th host-supplied input parameter (0 if absent).
		if len(x.Args) != 1 {
			return nil, lw.errf(x.Line, "arg takes one argument")
		}
		i, err := lw.rvalue(x.Args[0])
		if err != nil {
			return nil, err
		}
		t := lw.fn.NewTemp(ir.IntType)
		lw.emit(lw.fn.NewCall(ir.Call{Fn: "arg", Args: []ir.Operand{i}, Dst: lw.fn.NewRef(t, 0), Site: lw.prog.NextSite()}))
		return lw.fn.NewRef(t, 0), nil
	}
	fd, ok := lw.funcs[x.Name]
	if !ok {
		return nil, lw.errf(x.Line, "call to undefined function %q", x.Name)
	}
	if len(x.Args) != len(fd.Params) {
		return nil, lw.errf(x.Line, "%s expects %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
	}
	var args []ir.Operand
	for i, a := range x.Args {
		v, err := lw.rvalue(a)
		if err != nil {
			return nil, err
		}
		v, err = lw.convert(v, fd.Params[i].Type, x.Line)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	var dst *ir.Ref
	if fd.Ret.Kind != ir.KVoid && !stmtPos {
		dst = lw.fn.NewRef(lw.fn.NewTemp(fd.Ret), 0)
	}
	lw.emit(lw.fn.NewCall(ir.Call{Fn: x.Name, Args: args, Dst: dst, Site: lw.prog.NextSite()}))
	if dst == nil {
		if fd.Ret.Kind == ir.KVoid && !stmtPos {
			return nil, lw.errf(x.Line, "void function %q used as a value", x.Name)
		}
		return nil, nil
	}
	return dst, nil
}

func (lw *lowerer) ifStmt(st *IfStmt) error {
	cond, err := lw.rvalue(st.Cond)
	if err != nil {
		return err
	}
	thenB := lw.fn.NewBlock()
	joinB := lw.fn.NewBlock()
	elseB := joinB
	if st.Else != nil {
		elseB = lw.fn.NewBlock()
	}
	lw.condJump(cond, thenB, elseB)

	lw.cur = thenB
	if err := lw.stmt(st.Then); err != nil {
		return err
	}
	lw.jump(joinB)

	if st.Else != nil {
		lw.cur = elseB
		if err := lw.stmt(st.Else); err != nil {
			return err
		}
		lw.jump(joinB)
	}
	lw.cur = joinB
	return nil
}

func (lw *lowerer) whileStmt(st *WhileStmt) error {
	head := lw.fn.NewBlock()
	body := lw.fn.NewBlock()
	exit := lw.fn.NewBlock()
	lw.jump(head)

	lw.cur = head
	cond, err := lw.rvalue(st.Cond)
	if err != nil {
		return err
	}
	lw.condJump(cond, body, exit)

	lw.breaks = append(lw.breaks, exit)
	lw.conts = append(lw.conts, head)
	lw.cur = body
	if err := lw.stmt(st.Body); err != nil {
		return err
	}
	lw.jump(head)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]

	lw.cur = exit
	return nil
}

func (lw *lowerer) forStmt(st *ForStmt) error {
	lw.pushScope()
	defer lw.popScope()
	if st.Init != nil {
		if err := lw.stmt(st.Init); err != nil {
			return err
		}
	}
	head := lw.fn.NewBlock()
	body := lw.fn.NewBlock()
	post := lw.fn.NewBlock()
	exit := lw.fn.NewBlock()
	lw.jump(head)

	lw.cur = head
	if st.Cond != nil {
		cond, err := lw.rvalue(st.Cond)
		if err != nil {
			return err
		}
		lw.condJump(cond, body, exit)
	} else {
		lw.jump(body)
	}

	lw.breaks = append(lw.breaks, exit)
	lw.conts = append(lw.conts, post)
	lw.cur = body
	if err := lw.stmt(st.Body); err != nil {
		return err
	}
	lw.jump(post)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]

	lw.cur = post
	if st.Post != nil {
		if err := lw.stmt(st.Post); err != nil {
			return err
		}
	}
	lw.jump(head)

	lw.cur = exit
	return nil
}

func (lw *lowerer) returnStmt(st *ReturnStmt) error {
	if lw.cur == nil {
		lw.cur = lw.fn.NewBlock()
	}
	if st.X == nil {
		if lw.fn.RetType.Kind != ir.KVoid {
			return lw.errf(st.Line, "missing return value")
		}
		lw.cur.Term = ir.Term{Kind: ir.TermRet}
		lw.cur = nil
		return nil
	}
	if lw.fn.RetType.Kind == ir.KVoid {
		return lw.errf(st.Line, "void function returns a value")
	}
	v, err := lw.rvalue(st.X)
	if err != nil {
		return err
	}
	v, err = lw.convert(v, lw.fn.RetType, st.Line)
	if err != nil {
		return err
	}
	lw.cur.Term = ir.Term{Kind: ir.TermRet, Val: v}
	lw.cur = nil
	return nil
}
