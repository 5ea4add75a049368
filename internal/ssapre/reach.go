package ssapre

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// domOrder numbers a function's reachable blocks in dominator-tree
// preorder (children in DomTree.Children order, the order the old dense
// walks visited them). Block a dominates block b exactly when b's number
// falls in [pre(a), last(a)], so the sparse walks pop their stacks by two
// comparisons (the DPO walk of Kennedy et al., TOPLAS 1999). SSAPRE never
// changes the CFG, so one numbering serves every round.
type domOrder struct {
	pre   []int32     // Block.ID → preorder number; -1 for an unreachable block
	last  []int32     // preorder number → largest preorder number in its subtree
	idom  []int32     // preorder number → its immediate dominator's; -1 at the entry
	block []*ir.Block // preorder number → block
}

func newDomOrder(fn *ir.Func, dt *ir.DomTree) *domOrder {
	maxID := 0
	for _, b := range fn.Blocks {
		maxID = max(maxID, b.ID)
	}
	d := &domOrder{pre: make([]int32, maxID+1)}
	for i := range d.pre {
		d.pre[i] = -1
	}
	var stack []int32 // preorder numbers of the open ancestors
	dt.PreorderWalk(func(b *ir.Block) {
		n := int32(len(d.block))
		d.pre[b.ID] = n
		d.block = append(d.block, b)
		d.last = append(d.last, n)
		parent := int32(-1)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		d.idom = append(d.idom, parent)
		stack = append(stack, n)
	}, func(b *ir.Block) {
		stack = stack[:len(stack)-1]
		d.last[d.pre[b.ID]] = int32(len(d.block) - 1)
	})
	return d
}

// dominates reports whether the block numbered a dominates the block
// numbered b (reflexively).
func (d *domOrder) dominates(a, b int32) bool { return a <= b && b <= d.last[a] }

// defSite is one definition of a tracked variable: a φ, a statement's
// destination or one of its χs.
type defSite struct {
	blk int32   // preorder number of the defining block
	idx int32   // statement index at the start of the round; -1 for a φ
	ver int     // version defined
	st  ir.Stmt // defining statement (nil for a φ)
	chi *ir.Chi // the χ, or nil for a φ or a strong definition
}

// reachTab indexes, for one PRE round, every definition of the variables
// the round's expression classes name, so each web can ask for the
// version reaching a block's entry or end, or for the first kill in a
// block, without walking the function. The tables are built from the IR
// at the start of the round and shared by every web of the round.
//
// An earlier class's code motion changes the IR under later classes of
// the same round, but never in a way these tables can see: it inserts
// definitions only of its own new temporary (which no class of the round
// names; Options.Verify asserts it) and moves an occurrence's destination
// into a copy placed right after it, so every tracked definition keeps
// its block, its version and its order relative to every occurrence of
// the round. χs never move; the kill test reads the live statement.
type reachTab struct {
	dom   *domOrder
	slot  map[*ir.Sym]int32
	sites [][]defSite // per slot, in preorder and statement order
	ends  [][]int32   // per slot, built on first use: preorder number → version at block end, +1 (0 = not yet known)
	buf   []int32     // backing store for ends
}

// build indexes the definitions of every variable of classes and records
// each class's slots.
func (r *reachTab) build(classes []*exprClass) {
	clear(r.slot)
	n := int32(0)
	for _, ec := range classes {
		ec.slots = ec.slots[:0]
		for _, v := range ec.vars {
			s, ok := r.slot[v]
			if !ok {
				s = n
				n++
				r.slot[v] = s
			}
			ec.slots = append(ec.slots, s)
		}
	}
	for len(r.sites) < int(n) {
		r.sites = append(r.sites, nil)
	}
	r.sites = r.sites[:n]
	for i := range r.sites {
		r.sites[i] = r.sites[i][:0]
	}
	r.ends = append(r.ends[:0], make([][]int32, n)...)
	r.buf = r.buf[:0]
	if n == 0 {
		return
	}
	def := func(bi int32, idx int, sym *ir.Sym, ver int, st ir.Stmt, chi *ir.Chi) {
		if s, ok := r.slot[sym]; ok {
			r.sites[s] = append(r.sites[s], defSite{blk: bi, idx: int32(idx), ver: ver, st: st, chi: chi})
		}
	}
	for bi, b := range r.dom.block {
		for _, phi := range b.Phis {
			def(int32(bi), -1, phi.Sym, phi.Ver, nil, nil)
		}
		for i, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				def(int32(bi), i, t.Dst.Sym, t.Dst.Ver, st, nil)
				for _, chi := range t.Chis {
					def(int32(bi), i, chi.Sym, chi.NewVer, st, chi)
				}
			case *ir.IStore:
				for _, chi := range t.Chis {
					def(int32(bi), i, chi.Sym, chi.NewVer, st, chi)
				}
			case *ir.Call:
				if t.Dst != nil {
					def(int32(bi), i, t.Dst.Sym, t.Dst.Ver, st, nil)
				}
				for _, chi := range t.Chis {
					def(int32(bi), i, chi.Sym, chi.NewVer, st, chi)
				}
			}
		}
	}
}

// firstAt returns the index in sites[s] of the first definition in block
// bi (len(sites[s]) when there is none at or after bi).
func (r *reachTab) firstAt(s, bi int32) int {
	sites := r.sites[s]
	lo, hi := 0, len(sites)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sites[m].blk < bi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// phiVer returns the version slot s's φ defines at block bi, if any.
func (r *reachTab) phiVer(s, bi int32) (int, bool) {
	sites := r.sites[s]
	if k := r.firstAt(s, bi); k < len(sites) && sites[k].blk == bi && sites[k].idx < 0 {
		return sites[k].ver, true
	}
	return 0, false
}

// endVer returns the version of slot s reaching the end of block bi: the
// block's last definition, else the version at the end of its immediate
// dominator, else 0 at the entry. Answers are memoized up the idom chain.
// It reports how many blocks the lookup climbed.
func (r *reachTab) endVer(s, bi int32) (ver, climbed int) {
	e := r.ends[s]
	if e == nil {
		n := len(r.dom.block)
		if cap(r.buf)-len(r.buf) < n {
			r.buf = make([]int32, 0, max(4*n, 1024))
		}
		e = r.buf[len(r.buf) : len(r.buf)+n]
		r.buf = r.buf[:len(r.buf)+n]
		clear(e)
		for _, d := range r.sites[s] {
			e[d.blk] = int32(d.ver) + 1
		}
		r.ends[s] = e
	}
	top := bi
	for e[top] == 0 && r.dom.idom[top] >= 0 {
		top = r.dom.idom[top]
		climbed++
	}
	v := e[top]
	if v == 0 {
		v = 1 // the entry defines nothing: version 0
		e[top] = v
	}
	for x := bi; e[x] == 0; x = r.dom.idom[x] {
		e[x] = v
	}
	return int(v - 1), climbed
}

// entryVer returns the version of slot s just after block bi's φs.
func (r *reachTab) entryVer(s, bi int32) (ver, climbed int) {
	if v, ok := r.phiVer(s, bi); ok {
		return v, 0
	}
	if p := r.dom.idom[bi]; p >= 0 {
		return r.endVer(s, p)
	}
	return 0, 0
}

// firstKill returns the statement index of the first statement of block
// bi that kills a class with slots slots under walk context ctx (a strong
// definition, a flagged χ, or a weak χ the context refuses to skip), or
// -1. It reports how many definitions it examined.
func (r *reachTab) firstKill(slots []int32, bi int32, ctx *core.WalkContext) (idx int32, seen int) {
	idx = -1
	for _, s := range slots {
		sites := r.sites[s]
		for k := r.firstAt(s, bi); k < len(sites) && sites[k].blk == bi; k++ {
			d := &sites[k]
			if d.idx < 0 {
				continue
			}
			if idx >= 0 && d.idx >= idx {
				break
			}
			seen++
			if d.chi == nil || d.chi.Spec || ctx.BlocksSkip(d.st) {
				idx = d.idx
				break
			}
		}
	}
	return idx, seen
}
