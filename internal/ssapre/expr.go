// Package ssapre implements the speculative SSAPRE framework of §4 of Lin
// et al. (PLDI 2003): the six-step SSA-based partial redundancy
// elimination of Kennedy et al. (TOPLAS 1999) extended with data
// speculation (enhanced Φ-insertion per Appendix A, speculative renaming,
// and check/advance-load generation in CodeMotion per Appendix B) and with
// profile-driven control speculation (Lo et al., PLDI 1998). Its clients
// are expression PRE, speculative register promotion of direct and
// indirect loads, strength reduction and linear-function test replacement.
package ssapre

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
)

// Options configures a run of the optimizer on one function.
type Options struct {
	// DataSpec selects the data-speculation mode used when interpreting
	// chi/mu speculation flags (core.ModeNone disables data speculation).
	DataSpec core.Mode
	// ControlSpec permits computation insertion at non-down-safe Φs when
	// the edge profile says it is profitable.
	ControlSpec bool
	// Rounds caps the number of PRE passes (copy propagation runs
	// between rounds so second-order redundancies surface; iteration
	// stops early when a pass changes nothing). Default 8.
	Rounds int
	// Alias provides virtual-variable identity.
	Alias *alias.Result
	// NoArith restricts PRE to load expressions only (register promotion
	// alone), for ablations.
	NoArith bool
	// NoStrength disables the strength-reduction / LFTR client.
	NoStrength bool
	// Verify re-checks CFG and SSA invariants after every PRE round and
	// transformation (used by the test suite; costs compile time).
	Verify bool
	// VerifyHook, when non-nil, is invoked on each function after every
	// optimization phase — pass is "ssapre-round-N" or "strength-reduce"
	// while the function is still in SSA form (inSSA true) and
	// "out-of-ssa" after conversion. A non-nil error aborts the run; the
	// pipeline uses it to attribute speculation-soundness violations to
	// the pass that introduced them (internal/specheck).
	VerifyHook func(fn *ir.Func, pass string, inSSA bool) error
	// Workers bounds the number of functions optimized concurrently:
	// 0 uses every core, 1 reproduces the serial pipeline bit-for-bit.
	Workers int
}

// Stats reports what the optimizer did to one function.
type Stats struct {
	ExprClasses     int // expression classes examined
	Eliminated      int // real occurrences replaced by temp reuse
	SpecEliminated  int // of those, speculative (check instructions)
	Insertions      int // computations inserted on edges
	SpecInsertions  int // of those, control-speculative
	ChecksInserted  int // check loads generated (ld.c)
	AdvLoadsMarked  int // loads marked as advanced loads (ld.a)
	PhisPlaced      int // expression Φs placed
	StrengthReduced int // induction multiplications rewritten to additions
	LFTRApplied     int // loop exit tests rewritten (linear-function test replacement)
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.ExprClasses += s2.ExprClasses
	s.Eliminated += s2.Eliminated
	s.SpecEliminated += s2.SpecEliminated
	s.Insertions += s2.Insertions
	s.SpecInsertions += s2.SpecInsertions
	s.ChecksInserted += s2.ChecksInserted
	s.AdvLoadsMarked += s2.AdvLoadsMarked
	s.PhisPlaced += s2.PhisPlaced
	s.StrengthReduced += s2.StrengthReduced
	s.LFTRApplied += s2.LFTRApplied
}

// exprKind classifies PRE-candidate expressions.
type exprKind int

const (
	exprArith exprKind = iota
	exprDirectLoad
	exprIndirectLoad
)

// leafID identifies an operand leaf ignoring SSA versions.
type leafID struct {
	kind byte // 'c' const int, 'f' const float, 's' sym ref, 'a' addr-of, '0' absent
	sym  *ir.Sym
	ival int64
	fval float64
}

func leafOf(op ir.Operand) leafID {
	switch o := op.(type) {
	case *ir.ConstInt:
		return leafID{kind: 'c', ival: o.Val}
	case *ir.ConstFloat:
		return leafID{kind: 'f', fval: o.Val}
	case *ir.Ref:
		return leafID{kind: 's', sym: o.Sym}
	case *ir.AddrOf:
		return leafID{kind: 'a', sym: o.Sym}
	}
	return leafID{kind: '0'}
}

// exprKey identifies a lexically-identical expression class.
type exprKey struct {
	kind exprKind
	rk   ir.RHSKind
	op   ir.Op
	a, b leafID
}

// occurrence is a real occurrence of an expression: an Assign computing it.
type occurrence struct {
	stmt  *ir.Assign
	block *ir.Block
	index int // statement index within block

	// vers holds the canonical SSA versions of the expression's operand
	// variables at this occurrence (operand leaves are resolved through
	// pure copy chains so that lexically different temporaries holding
	// the same SSA value share one expression class).
	vers occVerList

	class  int  // h-version assigned by Rename (-1 = unassigned)
	spec   bool // renamed speculatively: reuse requires a check
	reload bool // Finalize: replace computation with temp reuse
	defOcc *defNode
	node   *defNode // Finalize: the occurrence's own node as a value provider
	inWeb  bool
}

// exprClass groups every occurrence of one expression.
type exprClass struct {
	key  exprKey
	kind exprKind
	occs []*occurrence

	vars     []*ir.Sym  // operand variables whose versions identify the value
	slots    []int32    // the round's reachTab slot of each of vars
	vvSym    *ir.Sym    // virtual variable (indirect loads)
	aTmpl    ir.Operand // canonical first operand template
	bTmpl    ir.Operand // canonical second operand template (binary)
	ctx      *core.WalkContext
	loadType *ir.Type // element type for load expressions
	resType  *ir.Type // type of the computed value
}

func (e *exprClass) String() string {
	return fmt.Sprintf("expr{kind=%d op=%s occs=%d}", e.kind, e.key.op, len(e.occs))
}

// buildResolver indexes pure register-to-register copies so operand
// leaves can be canonicalized to the SSA value they carry. Copies whose
// source is a check-bearing PRE temporary are excluded: a check load
// (ld.c) redefines the coalesced register at run time, so that temp's
// version numbering does not denote stable values and must stay opaque
// to value analysis. (Temps of check-free webs are honest SSA and resolve
// normally — this is what lets loads unify through hoisted address
// arithmetic.)
func buildResolver(fn *ir.Func, checked map[*ir.Sym]bool) map[core.SymVer]ir.Operand {
	copies := map[core.SymVer]ir.Operand{}
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok || a.RK != ir.RHSCopy || a.Dst.Sym.InMemory() {
				continue
			}
			if a.Spec.AdvLoad || a.Spec.CheckLoad || a.Spec.SpecLoad {
				continue
			}
			switch src := a.A.(type) {
			case *ir.Ref:
				if !src.Sym.InMemory() && !checked[src.Sym] {
					copies[core.SymVer{Sym: a.Dst.Sym, Ver: a.Dst.Ver}] = src
				}
			case *ir.ConstInt, *ir.ConstFloat, *ir.AddrOf:
				copies[core.SymVer{Sym: a.Dst.Sym, Ver: a.Dst.Ver}] = src
			}
		}
	}
	return copies
}

// resolveOperand canonicalizes an operand through the copy index.
func resolveOperand(op ir.Operand, copies map[core.SymVer]ir.Operand) ir.Operand {
	for i := 0; i < 64; i++ {
		r, ok := op.(*ir.Ref)
		if !ok {
			return op
		}
		next, ok := copies[core.SymVer{Sym: r.Sym, Ver: r.Ver}]
		if !ok {
			return op
		}
		op = next
	}
	return op
}

// resolveSymVer canonicalizes the value (sym, ver) through the copy index
// without materializing a Ref. A nil result means the version resolves to
// itself (no copy-chain entry).
func resolveSymVer(sym *ir.Sym, ver int, copies map[core.SymVer]ir.Operand) ir.Operand {
	var op ir.Operand
	for i := 0; i < 64; i++ {
		next, ok := copies[core.SymVer{Sym: sym, Ver: ver}]
		if !ok {
			return op
		}
		op = next
		r, ok := next.(*ir.Ref)
		if !ok {
			return op
		}
		sym, ver = r.Sym, r.Ver
	}
	return op
}

// occVerList is a tiny sym→version map for one occurrence. Occurrences
// have at most a handful of operand variables (two operand leaves plus the
// virtual variables of the mu list), so an inline array beats a map; rare
// overflow spills to slices.
type occVerList struct {
	syms   [3]*ir.Sym
	vers   [3]int
	n      int
	spillS []*ir.Sym
	spillV []int
}

func (l *occVerList) set(s *ir.Sym, v int) {
	for i := 0; i < l.n && i < len(l.syms); i++ {
		if l.syms[i] == s {
			l.vers[i] = v
			return
		}
	}
	for i, ss := range l.spillS {
		if ss == s {
			l.spillV[i] = v
			return
		}
	}
	if l.n < len(l.syms) {
		l.syms[l.n], l.vers[l.n] = s, v
		l.n++
		return
	}
	l.spillS = append(l.spillS, s)
	l.spillV = append(l.spillV, v)
}

func (l *occVerList) get(s *ir.Sym) int {
	for i := 0; i < l.n && i < len(l.syms); i++ {
		if l.syms[i] == s {
			return l.vers[i]
		}
	}
	for i, ss := range l.spillS {
		if ss == s {
			return l.spillV[i]
		}
	}
	return 0
}

// collectExprs scans the function in dominator-tree preorder and groups
// PRE candidates into expression classes, canonicalizing operand leaves
// through copy chains.
func collectExprs(s *core.SSA, opts Options, synKeys map[ir.Stmt]string, copies map[core.SymVer]ir.Operand) []*exprClass {
	classes := map[exprKey]*exprClass{}
	var order []*exprClass
	var occBuf []occurrence // chunk allocator for occurrences

	visit := func(b *ir.Block) {
		for i, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok {
				continue
			}
			// statements carrying speculation flags belong to an earlier
			// round's web; rewriting them would break ld.a/ld.c pairing
			if a.Spec.AdvLoad || a.Spec.CheckLoad || a.Spec.SpecLoad {
				continue
			}
			var key exprKey
			var kind exprKind
			var ca, cb ir.Operand
			switch a.RK {
			case ir.RHSBinary, ir.RHSUnary:
				if opts.NoArith {
					continue
				}
				kind = exprArith
				ca = resolveOperand(a.A, copies)
				key = exprKey{kind: kind, rk: a.RK, op: a.Op, a: leafOf(ca)}
				if a.RK == ir.RHSBinary {
					cb = resolveOperand(a.B, copies)
					key.b = leafOf(cb)
					if a.Op.IsCommutative() && lessLeaf(key.b, key.a) {
						key.a, key.b = key.b, key.a
						ca, cb = cb, ca
					}
				}
				// pure-constant expressions are not worth a temp, but
				// address-of arithmetic (&g + k) must participate: its
				// hoisting is what lets the loads through it unify
				if key.a.kind != 's' && key.b.kind != 's' &&
					key.a.kind != 'a' && key.b.kind != 'a' {
					continue
				}
			case ir.RHSCopy:
				r, isRef := a.A.(*ir.Ref)
				if !isRef || !r.Sym.InMemory() {
					continue
				}
				kind = exprDirectLoad
				ca = a.A
				key = exprKey{kind: kind, rk: a.RK, a: leafOf(a.A)}
			case ir.RHSLoad:
				kind = exprIndirectLoad
				ca = resolveOperand(a.A, copies)
				key = exprKey{kind: kind, rk: a.RK, a: leafOf(ca)}
			default:
				continue
			}
			// per-symbol version tracking cannot represent an occurrence
			// whose two operands are different versions of one symbol
			// (e.g. values loaded from the same location before and
			// after a store, both canonicalized to the web temp); such
			// occurrences are left unoptimized
			if ra, okA := ca.(*ir.Ref); okA {
				if rb, okB := cb.(*ir.Ref); okB && ra.Sym == rb.Sym && ra.Ver != rb.Ver {
					continue
				}
			}
			ec := classes[key]
			if ec == nil {
				ec = &exprClass{key: key, kind: kind, resType: a.Dst.Sym.Type, loadType: a.LoadsFrom, aTmpl: ca, bTmpl: cb}
				classes[key] = ec
				order = append(order, ec)
			}
			if len(occBuf) == 0 {
				occBuf = make([]occurrence, 64)
			}
			o := &occBuf[0]
			occBuf = occBuf[1:]
			*o = occurrence{stmt: a, block: b, index: i, class: -1}
			if r, ok := ca.(*ir.Ref); ok {
				o.vers.set(r.Sym, r.Ver)
			}
			if r, ok := cb.(*ir.Ref); ok {
				o.vers.set(r.Sym, r.Ver)
			}
			for _, mu := range a.Mus {
				if mu.Sym.Kind == ir.SymVirtual {
					o.vers.set(mu.Sym, mu.Ver)
				}
			}
			ec.occs = append(ec.occs, o)
		}
	}
	s.DT.PreorderWalk(visit, nil)

	// fill per-class metadata
	var out []*exprClass
	for _, ec := range order {
		if !ec.finish(s, opts, synKeys) {
			continue
		}
		out = append(out, ec)
	}
	return out
}

func lessLeaf(a, b leafID) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	switch a.kind {
	case 'c':
		return a.ival < b.ival
	case 'f':
		return a.fval < b.fval
	case 's', 'a':
		if a.sym == b.sym {
			return false
		}
		if a.sym == nil || b.sym == nil {
			return b.sym != nil
		}
		return a.sym.Name < b.sym.Name
	}
	return false
}

// finish computes the operand-variable set and the speculative-walk
// context; returns false if the class cannot be optimized.
func (ec *exprClass) finish(s *core.SSA, opts Options, synKeys map[ir.Stmt]string) bool {
	addVar := func(sym *ir.Sym) {
		for _, v := range ec.vars {
			if v == sym {
				return
			}
		}
		ec.vars = append(ec.vars, sym)
	}
	first := ec.occs[0].stmt
	switch ec.kind {
	case exprArith:
		if r, ok := ec.aTmpl.(*ir.Ref); ok {
			addVar(r.Sym)
		}
		if r, ok := ec.bTmpl.(*ir.Ref); ok {
			addVar(r.Sym)
		}
	case exprDirectLoad:
		addVar(ec.aTmpl.(*ir.Ref).Sym)
	case exprIndirectLoad:
		if r, ok := ec.aTmpl.(*ir.Ref); ok {
			addVar(r.Sym)
		}
		// the virtual variable carries the value identity of the
		// location; find it in the mu list
		for _, mu := range first.Mus {
			if mu.Sym.Kind == ir.SymVirtual && opts.Alias != nil {
				if _, isHeap := opts.Alias.HeapSiteOf[mu.Sym]; !isHeap {
					ec.vvSym = mu.Sym
				}
			}
		}
		if ec.vvSym == nil {
			return false // unanalyzed load; leave alone
		}
		addVar(ec.vvSym)
	}
	if len(ec.vars) == 0 && ec.kind != exprArith {
		return false // unanalyzable load
	}
	// (variable-free arithmetic such as &g + k is invariant everywhere:
	// every occurrence trivially shares one value)

	// speculative-walk context: union of mu_s symbols over occurrences
	// (profile mode), syntax key (heuristic mode)
	ctx := &core.WalkContext{Mode: opts.DataSpec}
	if opts.DataSpec.ProfileGuided() {
		ctx.MuSpec = map[*ir.Sym]bool{}
		for _, o := range ec.occs {
			for _, mu := range o.stmt.Mus {
				if mu.Spec {
					ctx.MuSpec[mu.Sym] = true
				}
			}
			// a direct load's "read set" is its own symbol
			if ec.kind == exprDirectLoad {
				ctx.MuSpec[ec.vars[0]] = true
			}
		}
	}
	if opts.DataSpec == core.ModeHeuristic && synKeys != nil {
		ctx.SynKey = synKeys[ir.Stmt(ec.occs[0].stmt)]
		ctx.Keys = synKeys
	}
	ec.ctx = ctx
	return true
}

// verOf returns the canonical version of variable v at occurrence o.
func (ec *exprClass) verOf(o *occurrence, v *ir.Sym) int {
	return o.vers.get(v)
}

// isLoad reports whether the expression reads memory (and so participates
// in data speculation and ALAT checking).
func (ec *exprClass) isLoad() bool { return ec.kind != exprArith }
