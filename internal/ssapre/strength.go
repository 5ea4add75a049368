package ssapre

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// strengthReduce implements the strength-reduction and linear-function
// test-replacement clients of the framework (Kennedy et al., CC'98; §4 of
// the paper lists them among the SSAPRE optimizations).
//
// For every loop with a basic induction variable
//
//	x2 = φ(x0, x3) ;  x3 = x2 + c        (c a constant)
//
// each in-loop multiplication t = x2 * k with loop-invariant k is replaced
// by an update chain
//
//	preheader:  s0 = x0 * k
//	header:     s2 = φ(s0, s3)
//	after x3:   s3 = s2 + c*k
//	use site:   t  = s2
//
// and, when the loop's exit test compares x2 (or x3) against a
// loop-invariant bound with positive step and constant k > 0, the test is
// rewritten to compare the strength-reduced temporary against bound*k
// (linear-function test replacement), letting DCE retire the original
// induction variable when nothing else uses it.
func strengthReduce(ssa *core.SSA, stats *Stats) {
	fn := ssa.Fn
	copies := buildResolver(fn, nil)
	loops, _ := ir.FindLoops(fn, ssa.DT)
	for _, loop := range loops {
		reduceLoop(ssa, loop, copies, stats)
	}
}

// indVar describes one basic induction variable of a loop.
type indVar struct {
	sym     *ir.Sym
	phi     *ir.Phi
	header  *ir.Block
	initRef *ir.Ref // value entering the loop
	nextRef *ir.Ref // φ operand from the backedge (x3)
	incStmt *ir.Assign
	incIdx  int // statement index of incStmt within its block
	incBlk  *ir.Block
	step    int64
	backIdx int // φ operand index of the backedge
}

func reduceLoop(ssa *core.SSA, loop *ir.Loop, copies map[core.SymVer]ir.Operand, stats *Stats) {
	header := loop.Header
	if len(header.Preds) != 2 {
		return
	}
	// identify preheader and latch
	preIdx, backIdx := -1, -1
	for i, p := range header.Preds {
		if loop.Blocks[p] {
			backIdx = i
		} else {
			preIdx = i
		}
	}
	if preIdx < 0 || backIdx < 0 {
		return
	}
	preheader := header.Preds[preIdx]

	ivs := findInductionVars(ssa, loop, header, preIdx, backIdx, copies)
	if len(ivs) == 0 {
		return
	}

	for _, iv := range ivs {
		reduceCandidates(ssa, loop, preheader, iv, copies, stats)
	}
}

// findInductionVars locates x2 = φ(x0, x3) with x3 = x2 + c in the loop.
// The backedge value is resolved through copy chains, since lowering
// splits `x++` into `t = x + c; x = t`.
func findInductionVars(ssa *core.SSA, loop *ir.Loop, header *ir.Block, preIdx, backIdx int, copies map[core.SymVer]ir.Operand) []*indVar {
	var out []*indVar
	for _, phi := range header.Phis {
		if phi.Sym.Kind == ir.SymVirtual || phi.Sym.InMemory() || phi.Sym.Type.Kind != ir.KInt {
			continue
		}
		next, ok := resolveOperand(phi.Args[backIdx], copies).(*ir.Ref)
		if !ok {
			continue
		}
		d, ok := ssa.Def[core.SymVer{Sym: next.Sym, Ver: next.Ver}]
		if !ok || d.Kind != core.DefStmt || !loop.Blocks[d.Block] {
			continue
		}
		inc, ok := d.Stmt.(*ir.Assign)
		if !ok || inc.RK != ir.RHSBinary {
			continue
		}
		isPhiRef := func(op ir.Operand) bool {
			r, ok := resolveOperand(op, copies).(*ir.Ref)
			return ok && r.Sym == phi.Sym && r.Ver == phi.Ver
		}
		var step int64
		switch inc.Op {
		case ir.OpAdd:
			if isPhiRef(inc.A) {
				if c, okB := inc.B.(*ir.ConstInt); okB {
					step = c.Val
				}
			} else if c, okA := inc.A.(*ir.ConstInt); okA && isPhiRef(inc.B) {
				step = c.Val
			}
		case ir.OpSub:
			if isPhiRef(inc.A) {
				if c, okB := inc.B.(*ir.ConstInt); okB {
					step = -c.Val
				}
			}
		}
		if step == 0 {
			continue
		}
		idx := stmtIndex(d.Block, d.Stmt)
		if idx < 0 {
			continue
		}
		out = append(out, &indVar{
			sym: phi.Sym, phi: phi, header: header,
			initRef: phi.Args[preIdx], nextRef: next,
			incStmt: inc, incIdx: idx, incBlk: d.Block,
			step: step, backIdx: backIdx,
		})
	}
	return out
}

func stmtIndex(b *ir.Block, st ir.Stmt) int {
	for i, s := range b.Stmts {
		if s == st {
			return i
		}
	}
	return -1
}

// srCand is one strength-reduction candidate multiplication.
type srCand struct {
	stmt  *ir.Assign
	block *ir.Block
	k     ir.Operand // loop-invariant multiplier (const or invariant ref)
}

// reduceCandidates rewrites every `t = x2 * k` in the loop.
func reduceCandidates(ssa *core.SSA, loop *ir.Loop, preheader *ir.Block, iv *indVar, copies map[core.SymVer]ir.Operand, stats *Stats) {
	var cands []srCand
	for _, b := range loopBlocks(ssa.Fn, loop) {
		for _, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok || a.RK != ir.RHSBinary || a.Op != ir.OpMul {
				continue
			}
			if a.Spec.AdvLoad || a.Spec.CheckLoad || a.Spec.SpecLoad {
				continue
			}
			x, k := matchIVMul(a, iv, copies)
			if x == nil {
				continue
			}
			if !operandInvariant(ssa, loop, k) {
				continue
			}
			cands = append(cands, srCand{stmt: a, block: b, k: k})
		}
	}
	if len(cands) == 0 {
		return
	}

	// group candidates by multiplier value so each k gets one chain
	for ci, c := range cands {
		already := false
		for cj := 0; cj < ci; cj++ {
			if ir.SameOperand(cands[cj].k, c.k) {
				already = true
			}
		}
		if already {
			continue
		}
		buildChain(ssa, loop, preheader, iv, c.k, cands, copies, stats)
	}
}

// loopBlocks returns loop's blocks in fn's block order. Candidates are
// collected, and chains and LFTR temps created, in this order, so the
// code does not depend on the iteration order of the loop's block set
// when a loop holds candidates in two blocks.
func loopBlocks(fn *ir.Func, loop *ir.Loop) []*ir.Block {
	out := make([]*ir.Block, 0, len(loop.Blocks))
	for _, b := range fn.Blocks {
		if loop.Blocks[b] {
			out = append(out, b)
		}
	}
	return out
}

// matchIVMul matches t = x2*k or t = k*x2 against the induction variable's
// φ version, resolving operands through copy chains.
func matchIVMul(a *ir.Assign, iv *indVar, copies map[core.SymVer]ir.Operand) (x *ir.Ref, k ir.Operand) {
	if r, ok := resolveOperand(a.A, copies).(*ir.Ref); ok && r.Sym == iv.sym && r.Ver == iv.phi.Ver {
		return r, a.B
	}
	if r, ok := resolveOperand(a.B, copies).(*ir.Ref); ok && r.Sym == iv.sym && r.Ver == iv.phi.Ver {
		return r, a.A
	}
	return nil, nil
}

// operandInvariant reports whether an operand's value cannot change inside
// the loop: constants, and refs whose definition is outside the loop.
func operandInvariant(ssa *core.SSA, loop *ir.Loop, op ir.Operand) bool {
	switch o := op.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.AddrOf:
		return true
	case *ir.Ref:
		if o.Sym.InMemory() || o.Sym.Kind == ir.SymVirtual {
			return false
		}
		d, ok := ssa.Def[core.SymVer{Sym: o.Sym, Ver: o.Ver}]
		if !ok {
			return false
		}
		return !loop.Blocks[d.Block]
	}
	return false
}

// buildChain materializes the strength-reduced temporary for multiplier k
// and rewrites all matching candidates; then attempts LFTR.
func buildChain(ssa *core.SSA, loop *ir.Loop, preheader *ir.Block, iv *indVar, k ir.Operand, cands []srCand, copies map[core.SymVer]ir.Operand, stats *Stats) {
	fn := ssa.Fn
	s := fn.NewTemp(ir.IntType)
	newVer := func() int { s.NVers++; return s.NVers }

	// preheader: s0 = x_init * k
	v0 := newVer()
	init := &ir.Assign{Dst: &ir.Ref{Sym: s, Ver: v0}, RK: ir.RHSBinary, Op: ir.OpMul,
		A: &ir.Ref{Sym: iv.initRef.Sym, Ver: iv.initRef.Ver}, B: cloneOperand(k)}
	preheader.Stmts = append(preheader.Stmts, init)
	ssa.Def[core.SymVer{Sym: s, Ver: v0}] = core.Def{Kind: core.DefStmt, Block: preheader, Stmt: init}

	// header: s2 = φ(s0, s3)
	v2 := newVer()
	v3 := newVer()
	phi := &ir.Phi{Sym: s, Ver: v2, Args: make([]*ir.Ref, len(iv.header.Preds))}
	for i := range phi.Args {
		if i == iv.backIdx {
			phi.Args[i] = &ir.Ref{Sym: s, Ver: v3}
		} else {
			phi.Args[i] = &ir.Ref{Sym: s, Ver: v0}
		}
	}
	iv.header.Phis = append(iv.header.Phis, phi)
	ssa.Def[core.SymVer{Sym: s, Ver: v2}] = core.Def{Kind: core.DefPhi, Block: iv.header, Phi: phi}

	// after the increment: s3 = s2 + step*k  (k constant folds; invariant
	// k needs a preheader multiply)
	var stepTimesK ir.Operand
	if c, ok := k.(*ir.ConstInt); ok {
		stepTimesK = &ir.ConstInt{Val: iv.step * c.Val}
	} else {
		tk := fn.NewTemp(ir.IntType)
		tk.NVers++
		mult := &ir.Assign{Dst: &ir.Ref{Sym: tk, Ver: tk.NVers}, RK: ir.RHSBinary, Op: ir.OpMul,
			A: &ir.ConstInt{Val: iv.step}, B: cloneOperand(k)}
		preheader.Stmts = append(preheader.Stmts, mult)
		ssa.Def[core.SymVer{Sym: tk, Ver: tk.NVers}] = core.Def{Kind: core.DefStmt, Block: preheader, Stmt: mult}
		stepTimesK = &ir.Ref{Sym: tk, Ver: tk.NVers}
	}
	incS := &ir.Assign{Dst: &ir.Ref{Sym: s, Ver: v3}, RK: ir.RHSBinary, Op: ir.OpAdd,
		A: &ir.Ref{Sym: s, Ver: v2}, B: stepTimesK}
	// re-locate the increment (earlier chains may have shifted indices)
	idx := stmtIndex(iv.incBlk, iv.incStmt)
	if idx < 0 {
		return
	}
	iv.incBlk.Stmts = append(iv.incBlk.Stmts, nil)
	copy(iv.incBlk.Stmts[idx+2:], iv.incBlk.Stmts[idx+1:])
	iv.incBlk.Stmts[idx+1] = incS
	ssa.Def[core.SymVer{Sym: s, Ver: v3}] = core.Def{Kind: core.DefStmt, Block: iv.incBlk, Stmt: incS}

	// rewrite the candidate multiplications into copies of s2
	for _, c := range cands {
		if !ir.SameOperand(c.k, k) {
			continue
		}
		c.stmt.RK = ir.RHSCopy
		c.stmt.Op = ir.OpNone
		c.stmt.A = &ir.Ref{Sym: s, Ver: v2}
		c.stmt.B = nil
		stats.StrengthReduced++
	}

	// LFTR: rewrite `cond = x2 < bound` (loop-invariant bound, positive
	// step, positive constant multiplier) into `cond = s2 < bound*k`.
	// Because s2 equals x2*k exactly and multiplication by a positive
	// constant is monotone, the rewrite is sound wherever the comparison
	// value is used.
	kc, kConst := k.(*ir.ConstInt)
	if !kConst || kc.Val <= 0 || iv.step <= 0 {
		return
	}
	var boundK ir.Operand // lazily created bound*k
	for _, b := range loopBlocks(fn, loop) {
		for _, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok || a.RK != ir.RHSBinary || !a.Op.IsComparison() {
				continue
			}
			x, okX := resolveOperand(a.A, copies).(*ir.Ref)
			if !okX || x.Sym != iv.sym || x.Ver != iv.phi.Ver {
				continue
			}
			switch bound := a.B.(type) {
			case *ir.ConstInt:
				a.A = &ir.Ref{Sym: s, Ver: v2}
				a.B = &ir.ConstInt{Val: bound.Val * kc.Val}
				stats.LFTRApplied++
			case *ir.Ref:
				if !operandInvariant(ssa, loop, bound) || bound.Sym.Type.Kind != ir.KInt {
					continue
				}
				if boundK == nil {
					tb := fn.NewTemp(ir.IntType)
					tb.NVers++
					mul := &ir.Assign{Dst: &ir.Ref{Sym: tb, Ver: tb.NVers}, RK: ir.RHSBinary, Op: ir.OpMul,
						A: &ir.Ref{Sym: bound.Sym, Ver: bound.Ver}, B: &ir.ConstInt{Val: kc.Val}}
					preheader.Stmts = append(preheader.Stmts, mul)
					ssa.Def[core.SymVer{Sym: tb, Ver: tb.NVers}] = core.Def{Kind: core.DefStmt, Block: preheader, Stmt: mul}
					boundK = &ir.Ref{Sym: tb, Ver: tb.NVers}
				}
				a.A = &ir.Ref{Sym: s, Ver: v2}
				a.B = cloneOperand(boundK)
				stats.LFTRApplied++
			}
		}
	}
}

func cloneOperand(op ir.Operand) ir.Operand {
	switch o := op.(type) {
	case *ir.ConstInt:
		return &ir.ConstInt{Val: o.Val}
	case *ir.ConstFloat:
		return &ir.ConstFloat{Val: o.Val}
	case *ir.AddrOf:
		return &ir.AddrOf{Sym: o.Sym}
	case *ir.Ref:
		return &ir.Ref{Sym: o.Sym, Ver: o.Ver}
	}
	return op
}
