package ssapre

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
)

// defNode is a node of an expression's availability web: a real
// occurrence, an expression Φ, or an occurrence inserted by Finalize.
type defNode struct {
	real     *occurrence
	phi      *phiOcc
	inserted *ir.Assign // inserted computation (CodeMotion)
	class    int
	tVer     int // temp version this node provides (CodeMotion)
}

// phiOcc is an expression Φ (the capital-Φ of the paper, distinct from
// variable φs).
type phiOcc struct {
	block *ir.Block
	class int
	vers  []int      // versions of expression variables (parallel to ec.vars) just after b's φs
	opnds []*phiOpnd // parallel to block.Preds

	downSafe    bool
	specDS      bool // non-down-safe but control speculation deems insertion profitable
	canBeAvail  bool
	later       bool
	willBeAvail bool

	node *defNode
}

// phiOpnd describes the expression value arriving along one incoming edge.
type phiOpnd struct {
	def        *defNode // nil = ⊥ (not available)
	hasRealUse bool     // latest occurrence of the version on this path is real
	spec       bool     // availability crosses speculative weak updates
	vers       []int    // variable versions (parallel to ec.vars) at the end of the predecessor
	insert     bool     // Finalize: insert computation on this edge
	insCheck   bool     // insertion is a check load (spec crossing)
	tVer       int      // temp version feeding the Φ from this edge
}

// web is the per-class state threaded through the phases.
type web struct {
	ssa       *core.SSA
	ec        *exprClass
	opts      Options
	phis      []*phiOcc
	nextClass int
	preTemps  map[*ir.Sym]bool
	// checkedTemps are PRE temps redefined by check loads; their versions
	// are opaque to value analysis (see buildResolver)
	checkedTemps map[*ir.Sym]bool
	copies       map[core.SymVer]ir.Operand // pure-copy resolver for value matching

	// sites allocates reference-site ids for inserted loads. Function
	// passes run concurrently, so ids are function-local placeholders
	// renumbered by Run once every function has finished.
	sites *siteAlloc

	temp  *ir.Sym // materialization temp (created on demand)
	stats Stats

	// scratch is shared by every web of one function (webs are built and
	// consumed sequentially by one goroutine; passes parallelize per
	// function): the dominator numbering, the round's reaching-definition
	// tables, and buffers amortizing the many small allocations (version
	// snapshots, defNodes, Φ operand arrays, walk stacks).
	scratch *webScratch
}

// webScratch holds what the webs of one function share.
type webScratch struct {
	dom   *domOrder
	reach reachTab // rebuilt at the start of every round

	intBuf    []int
	nodeBuf   []defNode
	opndBuf   []phiOpnd
	occBlocks []*ir.Block
	inDF      []bool      // Φ-home marks, indexed by Block.ID
	dfList    []*ir.Block // blocks marked in inDF, in discovery order
	phiAt     []*phiOcc   // the current web's Φ at each block, indexed by Block.ID
	phiSeen   map[*ir.Phi]bool
	items     []webItem
	estack    []renEntry
	avail     []availUndo
	availTop  []*defNode // per class: the nearest available definition
	occFirst  []int32    // preorder number → 1 + index in ec.occs of the block's first occurrence
	dsMemo    []uint32   // preorder number → down-safety DFS state, tagged with dsGen
	dsGen     uint32

	// blocks and statements the web phases visited (see countVisits)
	blocks, stmts int
}

// countVisits, when non-nil, receives the blocks and statements the web
// phases of one function visited. Tests set it to pin that the phases'
// cost follows each web's occurrences and Φs, not the function's size.
var countVisits func(blocks, stmts int)

func newWebScratch(ssa *core.SSA) *webScratch {
	dom := newDomOrder(ssa.Fn, ssa.DT)
	return &webScratch{
		dom:      dom,
		reach:    reachTab{dom: dom, slot: map[*ir.Sym]int32{}},
		inDF:     make([]bool, len(dom.pre)),
		phiAt:    make([]*phiOcc, len(dom.pre)),
		occFirst: make([]int32, len(dom.block)),
		dsMemo:   make([]uint32, len(dom.block)),
	}
}

func newWeb(ssa *core.SSA, ec *exprClass, opts Options, copies map[core.SymVer]ir.Operand, scratch *webScratch) *web {
	return &web{ssa: ssa, ec: ec, opts: opts, copies: copies, sites: &siteAlloc{}, scratch: scratch}
}

// vi returns the index of sym in the class's operand-variable list, or -1.
// The list is tiny (≤3 in practice), so a linear scan beats any map.
func (w *web) vi(sym *ir.Sym) int {
	for i, v := range w.ec.vars {
		if v == sym {
			return i
		}
	}
	return -1
}

// verAt reads a version snapshot (parallel to ec.vars); symbols outside
// the variable set report version 0, matching the old map semantics.
func (w *web) verAt(vers []int, sym *ir.Sym) int {
	if i := w.vi(sym); i >= 0 {
		return vers[i]
	}
	return 0
}

// allocInts hands out a snapshot-sized slice from a shared backing array.
// The chunks are freshly made, so handed-out slices start zeroed.
func (w *web) allocInts(n int) []int {
	if n == 0 {
		return nil
	}
	sc := w.scratch
	if len(sc.intBuf) < n {
		sc.intBuf = make([]int, 256+n)
	}
	s := sc.intBuf[:n:n]
	sc.intBuf = sc.intBuf[n:]
	return s
}

// newNode allocates a defNode from a chunked arena.
func (w *web) newNode(n defNode) *defNode {
	sc := w.scratch
	if len(sc.nodeBuf) == 0 {
		sc.nodeBuf = make([]defNode, 64)
	}
	p := &sc.nodeBuf[0]
	sc.nodeBuf = sc.nodeBuf[1:]
	*p = n
	return p
}

// allocOpnds allocates a zeroed phiOpnd array from a chunked arena.
func (w *web) allocOpnds(n int) []phiOpnd {
	sc := w.scratch
	if len(sc.opndBuf) < n {
		sc.opndBuf = make([]phiOpnd, 64+n)
	}
	s := sc.opndBuf[:n:n]
	sc.opndBuf = sc.opndBuf[n:]
	return s
}

// occStillValid re-checks that the collected statement still computes this
// expression (an earlier class's CodeMotion may have rewritten it).
func (w *web) occStillValid(o *occurrence) bool {
	a := o.stmt
	if a.RK != w.ec.key.rk {
		return false
	}
	switch w.ec.kind {
	case exprArith:
		if a.Op != w.ec.key.op {
			return false
		}
	case exprDirectLoad:
		r, ok := a.A.(*ir.Ref)
		if !ok || !r.Sym.InMemory() {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Step 1: Φ-Insertion (paper Appendix A, with the weak-update-skipping
// walk that makes expressions speculatively anticipated).
// ---------------------------------------------------------------------

func (w *web) phiInsertion() {
	// Φ-home set, tracked with Block.ID-indexed marks plus a
	// discovery-order list (the phases are insensitive to the order:
	// class numbering happens in rename's dominator-order walk). The
	// previous web's marks and Φs are cleared first.
	sc := w.scratch
	for _, b := range sc.dfList {
		sc.inDF[b.ID] = false
		sc.phiAt[b.ID] = nil
	}
	sc.dfList = sc.dfList[:0]
	mark := func(b *ir.Block) {
		if !sc.inDF[b.ID] {
			sc.inDF[b.ID] = true
			sc.dfList = append(sc.dfList, b)
		}
	}
	occBlocks := sc.occBlocks[:0]
	for _, o := range w.ec.occs {
		occBlocks = append(occBlocks, o.block)
	}
	sc.occBlocks = occBlocks[:0]
	for _, b := range w.ssa.DT.IteratedFrontier(occBlocks) {
		mark(b)
	}

	// variable-φ-driven insertion: from each occurrence operand, skip
	// speculative weak updates; if the def is a variable φ, its block
	// (and those of φs feeding it, transitively) get an expression Φ.
	clear(sc.phiSeen)
	var addPhiRec func(phi *ir.Phi, blockOf *ir.Block)
	addPhiRec = func(phi *ir.Phi, blockOf *ir.Block) {
		if sc.phiSeen == nil {
			sc.phiSeen = map[*ir.Phi]bool{}
		}
		if sc.phiSeen[phi] {
			return
		}
		sc.phiSeen[phi] = true
		mark(blockOf)
		for _, arg := range phi.Args {
			home, _ := w.ssa.SpecHome(phi.Sym, arg.Ver, w.ec.ctx)
			if d, ok := w.ssa.Def[core.SymVer{Sym: phi.Sym, Ver: home}]; ok && d.Kind == core.DefPhi {
				addPhiRec(d.Phi, d.Block)
			}
		}
	}
	for _, o := range w.ec.occs {
		for _, v := range w.ec.vars {
			ver := w.ec.verOf(o, v)
			home, _ := w.ssa.SpecHome(v, ver, w.ec.ctx)
			if d, ok := w.ssa.Def[core.SymVer{Sym: v, Ver: home}]; ok && d.Kind == core.DefPhi {
				addPhiRec(d.Phi, d.Block)
			}
		}
	}

	sc.blocks += len(sc.dfList)
	for _, b := range sc.dfList {
		if len(b.Preds) < 2 {
			continue // Φ only makes sense at merge points
		}
		p := &phiOcc{block: b, class: -1, opnds: make([]*phiOpnd, len(b.Preds)), downSafe: true, canBeAvail: true}
		backing := w.allocOpnds(len(b.Preds))
		for i := range p.opnds {
			p.opnds[i] = &backing[i]
		}
		w.phis = append(w.phis, p)
		sc.phiAt[b.ID] = p
		w.stats.PhisPlaced++
	}
}

// ---------------------------------------------------------------------
// Step 2: Rename — assign h-versions (classes) to occurrences and Φs,
// using the speculative walk to identify speculative redundancies
// (§4.3 of the paper).
// ---------------------------------------------------------------------

// webItem is one point of a web's sparse walk: a Φ, a real occurrence,
// or a Φ operand (a pseudo-occurrence at the end of the predecessor).
type webItem struct {
	// key orders the walk: the block's dominator preorder number in the
	// high 32 bits, then the Φ (0), the real occurrences (1 + statement
	// index), and the Φ operands (all ones)
	key uint64
	occ *occurrence // a real occurrence, or nil
	phi *phiOcc     // the Φ, or the Φ owning operand j
	j   int32       // operand index; -1 for the Φ itself
}

func (it webItem) blk() int32 { return int32(it.key >> 32) }

// walkItems lists the web's Φs, real occurrences and Φ operands in
// dominator-tree preorder, the order the dense walk met them.
func (w *web) walkItems() []webItem {
	dom := w.scratch.dom
	items := w.scratch.items[:0]
	for _, p := range w.phis {
		bi := dom.pre[p.block.ID]
		if bi < 0 {
			continue
		}
		items = append(items, webItem{key: uint64(bi) << 32, phi: p, j: -1})
		for j, pred := range p.block.Preds {
			// a predecessor listed twice feeds only its first operand
			if pi := dom.pre[pred.ID]; pi >= 0 && p.block.PredIndex(pred) == j {
				items = append(items, webItem{key: uint64(pi)<<32 | 0xFFFFFFFF, phi: p, j: int32(j)})
			}
		}
	}
	for _, o := range w.ec.occs {
		items = append(items, webItem{key: uint64(dom.pre[o.block.ID])<<32 | uint64(1+o.index), occ: o})
	}
	slices.SortFunc(items, func(a, b webItem) int { return cmp.Compare(a.key, b.key) })
	w.scratch.items = items
	return items
}

// renEntry is a definition on the rename stack, pushed at block blk.
type renEntry struct {
	blk int32
	occ *occurrence
	phi *phiOcc
}

func (e renEntry) classOf() int {
	if e.occ != nil {
		return e.occ.class
	}
	return e.phi.class
}

// versAt returns a durable snapshot (parallel to ec.vars) of the versions
// of the class variables at block bi's entry, after its φs, or its end.
func (w *web) versAt(bi int32, entry bool) []int {
	sc := w.scratch
	s := w.allocInts(len(w.ec.vars))
	for i, slot := range w.ec.slots {
		var climbed int
		if entry {
			s[i], climbed = sc.reach.entryVer(slot, bi)
		} else {
			s[i], climbed = sc.reach.endVer(slot, bi)
		}
		sc.blocks += climbed
	}
	return s
}

// rename walks the web's items in dominator-tree preorder with a stack
// of definitions, popping every entry whose block does not dominate the
// item's. A real occurrence carries its own operand versions; a Φ and a
// Φ operand read theirs from the round's reaching-definition tables.
func (w *web) rename() {
	sc := w.scratch
	nv := len(w.ec.vars)
	estack := sc.estack[:0]

	// scratch snapshots reused across items (never escape a single
	// matchVers call)
	curBuf := w.allocInts(nv)
	tgtBuf := w.allocInts(nv)

	occVers := func(o *occurrence, buf []int) []int {
		for i, v := range w.ec.vars {
			buf[i] = w.ec.verOf(o, v)
		}
		return buf
	}

	topVers := func(top renEntry) []int {
		if top.occ != nil {
			return occVers(top.occ, tgtBuf)
		}
		return top.phi.vers
	}

	// matchVers checks whether current versions `cur` denote the same
	// values as target versions `tgt` (both parallel to ec.vars):
	// versions are resolved through pure copy chains (SSA value identity)
	// and, failing that, walked through speculative weak updates.
	matchVers := func(cur, tgt []int) (match, spec bool) {
		anySpec := false
		for i, v := range w.ec.vars {
			cv, tv := cur[i], tgt[i]
			if cv == tv {
				continue
			}
			ca := resolveSymVer(v, cv, w.copies)
			cb := resolveSymVer(v, tv, w.copies)
			caSym, caVer, caRef := v, cv, true
			if ca != nil {
				if r, ok := ca.(*ir.Ref); ok {
					caSym, caVer = r.Sym, r.Ver
				} else {
					caRef = false
				}
			}
			cbSym, cbVer, cbRef := v, tv, true
			if cb != nil {
				if r, ok := cb.(*ir.Ref); ok {
					cbSym, cbVer = r.Sym, r.Ver
				} else {
					cbRef = false
				}
			}
			if caRef && cbRef {
				if caSym == cbSym && caVer == cbVer {
					continue
				}
				if caSym == cbSym {
					reaches, sp := w.ssa.SpecReaches(caSym, caVer, cbVer, w.ec.ctx)
					if reaches {
						if sp {
							anySpec = true
						}
						continue
					}
				}
			} else if !caRef && !cbRef && ir.SameOperand(ca, cb) {
				continue
			}
			// fall back to the raw chain (vv and memory symbols are
			// never copied, so this is the common case for them)
			reaches, sp := w.ssa.SpecReaches(v, cv, tv, w.ec.ctx)
			if !reaches {
				return false, false
			}
			if sp {
				anySpec = true
			}
		}
		return true, anySpec
	}

	for _, it := range w.walkItems() {
		bi := it.blk()
		for len(estack) > 0 && !sc.dom.dominates(estack[len(estack)-1].blk, bi) {
			estack = estack[:len(estack)-1]
		}
		switch {
		case it.occ != nil:
			sc.stmts++
			o := it.occ
			// an earlier class's code motion may have rewritten it
			if !w.occStillValid(o) {
				continue
			}
			cur := occVers(o, curBuf)
			assigned := false
			if len(estack) > 0 {
				top := estack[len(estack)-1]
				if match, spec := matchVers(cur, topVers(top)); match {
					o.class = top.classOf()
					o.spec = spec
					if top.occ != nil {
						o.defOcc = w.newNode(defNode{real: top.occ, class: o.class})
					} else {
						o.defOcc = top.phi.node
					}
					assigned = true
				}
			}
			if !assigned {
				o.class = w.nextClass
				w.nextClass++
				o.defOcc = nil
				o.spec = false
			}
			estack = append(estack, renEntry{blk: bi, occ: o})
		case it.j < 0:
			sc.blocks++
			p := it.phi
			p.class = w.nextClass
			w.nextClass++
			p.vers = w.versAt(bi, true)
			p.node = w.newNode(defNode{phi: p, class: p.class})
			estack = append(estack, renEntry{blk: bi, phi: p})
		default:
			// Φ-operand pseudo-occurrence at the end of the predecessor
			sc.blocks++
			opnd := it.phi.opnds[it.j]
			opnd.vers = w.versAt(bi, false)
			if len(estack) == 0 {
				opnd.def = nil
				continue
			}
			top := estack[len(estack)-1]
			match, spec := matchVers(opnd.vers, topVers(top))
			if !match {
				opnd.def = nil
				continue
			}
			if top.occ != nil {
				opnd.def = w.newNode(defNode{real: top.occ, class: top.occ.class})
				opnd.hasRealUse = true
			} else {
				opnd.def = top.phi.node
				opnd.hasRealUse = false
			}
			opnd.spec = spec
		}
	}
	sc.estack = estack[:0]
}

// ---------------------------------------------------------------------
// Step 3: DownSafety — a Φ is down-safe when the expression's value is
// used on every path to exit before being killed. The kill test honours
// data speculation (weak updates the context may skip do not kill).
// Control speculation then re-admits profitable non-down-safe Φs.
// ---------------------------------------------------------------------

func (w *web) downSafety() {
	// Initial pass: a Φ is down-safe iff on every path forward its class
	// value reaches a real occurrence of the same class or flows into a
	// Φ-operand, before any kill or exit.
	if len(w.phis) > 0 {
		sc := w.scratch
		for i, o := range w.ec.occs {
			if bi := sc.dom.pre[o.block.ID]; sc.occFirst[bi] == 0 {
				sc.occFirst[bi] = int32(i + 1)
			}
		}
		for _, p := range w.phis {
			p.downSafe = w.usedOnAllPaths(p)
		}
		for _, o := range w.ec.occs {
			sc.occFirst[sc.dom.pre[o.block.ID]] = 0
		}
	}
	// Propagation: a Φ feeding only a non-down-safe Φ (with no real use
	// on the edge) is itself not down-safe.
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if p.downSafe {
				continue
			}
			for _, opnd := range p.opnds {
				if opnd.def != nil && opnd.def.phi != nil && !opnd.hasRealUse && opnd.def.phi.downSafe {
					opnd.def.phi.downSafe = false
					changed = true
				}
			}
		}
	}
	// Control speculation: a non-down-safe Φ may still host insertions
	// when the edges needing insertion are colder than the uses saved
	// (Lo et al. PLDI'98). Trapping arithmetic is never speculated.
	if !w.opts.ControlSpec || w.trapping() {
		return
	}
	for _, p := range w.phis {
		if p.downSafe {
			continue
		}
		var insFreq float64
		for i, opnd := range p.opnds {
			if opnd.def == nil {
				if i < len(p.block.Preds) {
					pred := p.block.Preds[i]
					pi := pred.SuccIndex(p.block)
					if pi >= 0 && pi < len(pred.EdgeFreq) {
						insFreq += pred.EdgeFreq[pi]
					} else {
						insFreq += pred.Freq
					}
				}
			}
		}
		var useFreq float64
		for _, o := range w.ec.occs {
			if o.class == p.class {
				useFreq += o.block.Freq
			}
		}
		if useFreq > insFreq {
			p.specDS = true
		}
	}
}

// trapping reports whether speculatively executing the expression could
// fault in a way the VM cannot defer (integer division).
func (w *web) trapping() bool {
	return w.ec.kind == exprArith && (w.ec.key.op == ir.OpDiv || w.ec.key.op == ir.OpMod)
}

// usedOnAllPaths checks the initial down-safety of Φ p by forward
// exploration from its block. In each block it reads only the first kill
// of the class's variables (from the round's tables) and the web's
// occurrences before it.
func (w *web) usedOnAllPaths(p *phiOcc) bool {
	sc := w.scratch
	dom := sc.dom
	// memo states: 0 unknown, 1 safe (or in progress: optimistic for
	// cycles, a pure cycle never exits), 2 unsafe; tagged with a
	// generation so every Φ starts from a clean memo
	sc.dsGen++
	tag := sc.dsGen << 2
	state := func(bi int32) uint32 {
		if m := sc.dsMemo[bi]; m&^3 == tag {
			return m & 3
		}
		return 0
	}
	var fromBlock func(b *ir.Block) bool
	fromBlock = func(b *ir.Block) bool {
		sc.blocks++
		bi := dom.pre[b.ID]
		kill, seen := sc.reach.firstKill(w.ec.slots, bi, w.ec.ctx)
		sc.stmts += seen
		if f := sc.occFirst[bi]; f > 0 {
			for _, o := range w.ec.occs[f-1:] {
				if o.block != b || (kill >= 0 && int32(o.index) > kill) {
					break
				}
				sc.stmts++
				if o.class == p.class {
					return true
				}
			}
		}
		if kill >= 0 || b.Term.Kind == ir.TermRet {
			return false
		}
		for _, s := range b.Succs {
			if q := sc.phiAt[s.ID]; q != nil {
				j := s.PredIndex(b)
				opnd := q.opnds[j]
				if opnd.def != nil && opnd.def.class == p.class {
					continue // value flows into the Φ; propagation handles it
				}
				return false
			}
			// entering s: variable φs there redefine operands → kill
			si := dom.pre[s.ID]
			for _, slot := range w.ec.slots {
				if _, ok := sc.reach.phiVer(slot, si); ok {
					return false
				}
			}
			switch state(si) {
			case 1:
				continue
			case 2:
				return false
			default:
				sc.dsMemo[si] = tag | 1
				if !fromBlock(s) {
					sc.dsMemo[si] = tag | 2
					return false
				}
			}
		}
		return true
	}
	return fromBlock(p.block)
}

// ---------------------------------------------------------------------
// Step 4: WillBeAvailable (standard SSAPRE, with specDS standing in for
// down-safety under control speculation).
// ---------------------------------------------------------------------

func (w *web) willBeAvail() {
	safe := func(p *phiOcc) bool { return p.downSafe || p.specDS }
	for _, p := range w.phis {
		p.canBeAvail = true
	}
	// seed: non-safe Φ with a ⊥ operand cannot be available
	for _, p := range w.phis {
		if !safe(p) {
			for _, opnd := range p.opnds {
				if opnd.def == nil {
					p.canBeAvail = false
					break
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if !p.canBeAvail {
				continue
			}
			if safe(p) {
				continue
			}
			for _, opnd := range p.opnds {
				if opnd.def != nil && opnd.def.phi != nil && !opnd.def.phi.canBeAvail && !opnd.hasRealUse {
					p.canBeAvail = false
					changed = true
					break
				}
			}
		}
	}
	// later: the insertion can be postponed (no real availability feeds it)
	for _, p := range w.phis {
		p.later = p.canBeAvail
	}
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if !p.later {
				continue
			}
			for _, opnd := range p.opnds {
				if opnd.def != nil && (opnd.hasRealUse || (opnd.def.phi != nil && !opnd.def.phi.later)) {
					p.later = false
					changed = true
					break
				}
			}
		}
	}
	for _, p := range w.phis {
		p.willBeAvail = p.canBeAvail && !p.later
	}
}
