package ssapre

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// codeMotion materializes the availability web into a real temporary
// (paper §4.4 and Appendix B): value-providing occurrences store into the
// temp (advanced loads, ld.a, when checks exist downstream), redundant
// occurrences reload from it (speculative ones as check loads, ld.c),
// will-be-available Φs become φs of the temp, and Φ operands lacking the
// value get computations inserted on their edges (ld.s under control
// speculation).
func (w *web) codeMotion() {
	// 1. which web nodes actually provide a consumed value? The set is
	// also kept as a list in marking order: steps 2 and 3 number temp
	// versions and append Φs as they go, so iterating the map would make
	// the numbering (and, through later rounds, the statistics) depend on
	// Go's randomized map order.
	needed := map[*defNode]bool{}
	var neededList []*defNode
	var reloads []*occurrence
	for _, o := range w.ec.occs {
		if o.reload && w.occStillValid(o) {
			reloads = append(reloads, o)
		}
	}
	if len(reloads) == 0 {
		return // nothing redundant; leave the function untouched
	}
	var mark func(n *defNode)
	mark = func(n *defNode) {
		if n == nil || needed[n] {
			return
		}
		needed[n] = true
		neededList = append(neededList, n)
		if n.phi != nil {
			for _, opnd := range n.phi.opnds {
				if !opnd.insert {
					// insCheck operands still need their defining web
					// materialized: the earlier (advanced) load provides
					// the ALAT entry and register value the check
					// validates, so the check is free when no aliasing
					// store intervened
					mark(opnd.def)
				}
			}
		}
	}
	for _, o := range reloads {
		mark(o.defOcc)
	}

	hasChecks := false
	for _, o := range reloads {
		if o.spec {
			hasChecks = true
		}
	}
	for _, n := range neededList {
		if n.phi != nil {
			for _, opnd := range n.phi.opnds {
				if opnd.insCheck {
					hasChecks = true
				}
			}
		}
	}

	fn := w.ssa.Fn
	t := fn.NewTemp(w.ec.resType)
	if w.opts.Verify {
		// later classes of the round read the round's tables, which
		// cannot see definitions of a variable they index
		if _, tracked := w.scratch.reach.slot[t]; tracked {
			panic(fmt.Sprintf("ssapre: new temp %s is a variable of this round's classes", t.Name))
		}
	}
	w.temp = t
	w.preTemp(t)
	if hasChecks {
		// a check load redefines the coalesced register at run time:
		// from here on, t's SSA versions no longer denote distinct
		// stable values, and later rounds must treat copies out of t as
		// opaque
		w.checkedTemps[t] = true
	}
	newTVer := func() int { t.NVers++; return t.NVers }

	markAdv := w.ec.isLoad() && hasChecks

	// 2. materialize value-providing real occurrences: d = E becomes
	//    t_v = E ; d = t_v
	for _, n := range neededList {
		if n.real == nil {
			continue
		}
		o := n.real
		vt := newTVer()
		n.tVer = vt
		oldDst := o.stmt.Dst
		o.stmt.Dst = fn.NewRef(t, vt)
		if markAdv {
			o.stmt.Spec.AdvLoad = true
			w.stats.AdvLoadsMarked++
		}
		copyStmt := fn.NewAssign(ir.Assign{Dst: oldDst, RK: ir.RHSCopy, A: fn.NewRef(t, vt)})
		insertAfter(o.block, o.stmt, copyStmt)
		w.ssa.Def[core.SymVer{Sym: t, Ver: vt}] = core.Def{Kind: core.DefStmt, Block: o.block, Stmt: o.stmt}
		w.ssa.Def[core.SymVer{Sym: oldDst.Sym, Ver: oldDst.Ver}] = core.Def{Kind: core.DefStmt, Block: o.block, Stmt: copyStmt}
	}

	// 3. materialize Φs of the temp and their operand insertions
	for _, n := range neededList {
		if n.phi == nil {
			continue
		}
		p := n.phi
		vt := newTVer()
		n.tVer = vt
		phi := fn.NewPhi(ir.Phi{Sym: t, Ver: vt, Args: make([]*ir.Ref, len(p.block.Preds))})
		p.block.Phis = append(p.block.Phis, phi)
		w.ssa.Def[core.SymVer{Sym: t, Ver: vt}] = core.Def{Kind: core.DefPhi, Block: p.block, Phi: phi}
		for j, opnd := range p.opnds {
			pred := p.block.Preds[j]
			switch {
			case opnd.insert:
				vi := newTVer()
				ins := w.buildComputation(t, vi, opnd.vers)
				if w.ec.isLoad() {
					if !p.downSafe {
						ins.Spec.SpecLoad = true
						w.stats.SpecInsertions++
					}
					if markAdv {
						ins.Spec.AdvLoad = true
						w.stats.AdvLoadsMarked++
					}
				} else if !p.downSafe {
					w.stats.SpecInsertions++
				}
				pred.Stmts = append(pred.Stmts, ins)
				w.ssa.Def[core.SymVer{Sym: t, Ver: vi}] = core.Def{Kind: core.DefStmt, Block: pred, Stmt: ins}
				phi.Args[j] = fn.NewRef(t, vi)
				w.stats.Insertions++
			case opnd.insCheck:
				vi := newTVer()
				ins := w.buildComputation(t, vi, opnd.vers)
				ins.Spec.CheckLoad = true
				pred.Stmts = append(pred.Stmts, ins)
				w.ssa.Def[core.SymVer{Sym: t, Ver: vi}] = core.Def{Kind: core.DefStmt, Block: pred, Stmt: ins}
				phi.Args[j] = fn.NewRef(t, vi)
				w.stats.ChecksInserted++
			default:
				phi.Args[j] = fn.NewRef(t, opnd.def.tVer)
			}
		}
	}

	// 4. rewrite redundant occurrences
	for _, o := range reloads {
		defVer := o.defOcc.tVer
		if o.spec && w.ec.isLoad() {
			// speculative redundancy: the load becomes a check load into
			// the temp (free on ALAT hit, reloads on miss), and the
			// original destination copies from it (Appendix B).
			vt := newTVer()
			oldDst := o.stmt.Dst
			o.stmt.Dst = fn.NewRef(t, vt)
			o.stmt.Spec = ir.SpecFlags{CheckLoad: true}
			copyStmt := fn.NewAssign(ir.Assign{Dst: oldDst, RK: ir.RHSCopy, A: fn.NewRef(t, vt)})
			insertAfter(o.block, o.stmt, copyStmt)
			w.ssa.Def[core.SymVer{Sym: t, Ver: vt}] = core.Def{Kind: core.DefStmt, Block: o.block, Stmt: o.stmt}
			w.ssa.Def[core.SymVer{Sym: oldDst.Sym, Ver: oldDst.Ver}] = core.Def{Kind: core.DefStmt, Block: o.block, Stmt: copyStmt}
			w.stats.ChecksInserted++
			w.stats.SpecEliminated++
			w.stats.Eliminated++
		} else {
			// plain full redundancy: replace the computation with a copy
			o.stmt.RK = ir.RHSCopy
			o.stmt.Op = ir.OpNone
			o.stmt.A = fn.NewRef(t, defVer)
			o.stmt.B = nil
			o.stmt.Mus = nil
			o.stmt.LoadsFrom = nil
			o.stmt.Site = 0
			o.stmt.Spec = ir.SpecFlags{}
			w.stats.Eliminated++
		}
	}
}

// buildComputation constructs `t_ver = E` with the expression's operands
// at the given variable versions (parallel to ec.vars; variables outside
// the set read as version 0).
func (w *web) buildComputation(t *ir.Sym, ver int, vers []int) *ir.Assign {
	fn := w.ssa.Fn
	model := w.ec.occs[0].stmt
	reVer := func(op ir.Operand) ir.Operand {
		switch o := op.(type) {
		case *ir.ConstInt:
			return ir.IntConst(o.Val)
		case *ir.ConstFloat:
			return ir.FloatConst(o.Val)
		case *ir.AddrOf:
			return fn.NewAddrOf(o.Sym)
		case *ir.Ref:
			return fn.NewRef(o.Sym, w.verAt(vers, o.Sym))
		}
		return op
	}
	a := fn.NewAssign(ir.Assign{
		Dst: fn.NewRef(t, ver),
		RK:  model.RK,
		Op:  model.Op,
		A:   reVer(w.ec.aTmpl),
	})
	if w.ec.bTmpl != nil {
		a.B = reVer(w.ec.bTmpl)
	}
	if model.RK == ir.RHSLoad || (model.RK == ir.RHSCopy && w.ec.kind == exprDirectLoad) {
		a.LoadsFrom = w.ec.loadType
		w.sites.alloc(a)
		// rebuild the mu list at the insertion point's versions
		for _, mu := range model.Mus {
			a.Mus = append(a.Mus, fn.NewMu(ir.Mu{Sym: mu.Sym, Ver: w.verAt(vers, mu.Sym), Spec: mu.Spec}))
		}
	}
	return a
}

// insertAfter places stmt immediately after ref in block b.
func insertAfter(b *ir.Block, ref ir.Stmt, stmt ir.Stmt) {
	for i, s := range b.Stmts {
		if s == ref {
			b.Stmts = append(b.Stmts, nil)
			copy(b.Stmts[i+2:], b.Stmts[i+1:])
			b.Stmts[i+1] = stmt
			return
		}
	}
	b.Stmts = append(b.Stmts, stmt)
}
