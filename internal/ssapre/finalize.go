package ssapre

// nodeOf returns the unique defNode of a real occurrence.
func (w *web) nodeOf(o *occurrence) *defNode {
	if o.defOcc != nil && o.defOcc.real == o {
		return o.defOcc
	}
	if o.node == nil {
		o.node = w.newNode(defNode{real: o, class: o.class})
	}
	return o.node
}

// availUndo records the definition a class had available before a
// finalize step at block blk replaced it.
type availUndo struct {
	blk   int32
	class int
	prev  *defNode
}

// finalize decides which occurrences reload from the temporary and which
// Φ operands need insertions. It revisits rename's items (Φs and real
// occurrences, in dominator-tree preorder) tracking the nearest available
// definition of each class; leaving a dominator subtree undoes the
// subtree's updates.
func (w *web) finalize() {
	sc := w.scratch
	if len(sc.availTop) < w.nextClass {
		sc.availTop = make([]*defNode, w.nextClass)
	}
	avail := sc.availTop[:w.nextClass]
	undo := sc.avail[:0]
	set := func(bi int32, c int, n *defNode) {
		undo = append(undo, availUndo{blk: bi, class: c, prev: avail[c]})
		avail[c] = n
	}
	for _, it := range sc.items {
		if it.occ == nil && it.j >= 0 {
			continue // Φ operands are decided below
		}
		bi := it.blk()
		for len(undo) > 0 && !sc.dom.dominates(undo[len(undo)-1].blk, bi) {
			u := undo[len(undo)-1]
			avail[u.class] = u.prev
			undo = undo[:len(undo)-1]
		}
		if it.occ == nil {
			sc.blocks++
			if p := it.phi; p.willBeAvail {
				set(bi, p.class, p.node)
			}
			continue
		}
		sc.stmts++
		o := it.occ
		if !w.occStillValid(o) {
			continue
		}
		if def := avail[o.class]; def != nil && o.defOcc != nil {
			o.reload = true
			o.defOcc = def
		} else {
			// leader: this occurrence computes the value
			o.reload = false
			o.defOcc = nil
			o.spec = false
			set(bi, o.class, w.nodeOf(o))
		}
	}
	clear(avail)
	sc.avail = undo[:0]

	// insertion decisions for will-be-available Φs
	for _, p := range w.phis {
		if !p.willBeAvail {
			continue
		}
		for _, opnd := range p.opnds {
			switch {
			case opnd.def == nil:
				opnd.insert = true
			case opnd.def.phi != nil && !opnd.def.phi.willBeAvail:
				opnd.insert = true
			case opnd.spec && w.ec.isLoad():
				// the value crosses speculative weak updates on this
				// edge: re-validate it with a check load
				opnd.insCheck = true
			}
		}
	}
}
