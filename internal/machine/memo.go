package machine

import "slices"

// Block memoization for the pipelined walk (DESIGN.md §13), after
// Schnarr and Larus (ASPLOS 1998). A basic block runs from its entry pc
// up to and including its branch, call, return or halt. Issue at
// max(clock, ready) is clock + max(0, ready−clock), clocks only rise and
// a fence maxes over every register, so all ready times at or before the
// clock behave alike: given each in-flight register's distance to ready
// and the block's check outcomes, a block's effect is a clock delta per
// lane and a new in-flight set, stored once and replayed on a hit. A
// transition's exit state is its successor's entry state, so each
// transition also links its successors, and the walk follows those
// links like an automaton, leaving the scoreboard behind until the
// chain ends (batchWalker.settle). The memo lives for one batchWalk call
// and gives up, leaving the walk per instruction, once a block has
// memoBlockStates transitions or all transitions and links hold
// memoMaxWords words: a run whose states never repeat stays bounded.
const (
	memoBlockStates = 64
	memoMaxWords    = 1 << 20
)

// blockCounts are a block's static counts, by which a hit advances the
// shared cursors.
type blockCounts struct {
	n      int64 // instructions, terminator included; 0: not yet scanned, -1: no terminator
	skip   int64 // speculative-load bits read before the terminator
	checks int64 // check events
}

// memoBlock is the block starting at one pc and its transitions.
type memoBlock struct {
	blockCounts
	trans []*transition
}

// transition is one memoized block execution. Its key is the block's
// check outcomes, one bit per (check, stream) packed into words, then
// (register, per-lane ready−clock) for each register in flight at entry,
// ascending. regs are the registers in flight at entry or exit,
// ascending; settling sets each to the clock plus its exit distance (0
// for one no longer in flight).
//
// next links the transitions the walk has taken after this one, by the
// terminator's direction (1: a conditional branch taken). The exit
// state fixes the successor's in-flight part of the key, and the
// direction fixes its block, so the successor's check outcomes alone
// select among them.
//
// hold and arm serve cycle skipping (cycle.go): the steps before which
// the walk does not try to skip a cycle through the transition, and its
// state where it armed.
type transition struct {
	blockCounts
	key    []int64
	dclock []int64 // per lane
	regs   []int
	exit   []int64 // register-major, like the scoreboard
	next   [2][]*transition

	hold int64
	arm  *cycleArm
}

// blockMemo is one walk's memo. Each frame keeps the registers that may
// be in flight (batchFrame.live): a register leaves the in-flight set
// only as clocks rise and enters it only when a block writes it, so the
// registers in flight at a block's entry or exit cover it afterwards.
type blockMemo struct {
	off    bool
	blocks map[*FuncCode][]memoBlock // indexed by entry pc
	words  int
	count  int
	keyed  int // block entries resolved by a keyed lookup, not a link

	// scratch for the block a miss walks
	key    []int64
	entry  []int // registers in flight at entry
	clock0 []int64
}

// enter looks up the block at pc by its full key. On a hit it returns
// the block and the transition to replay; on a miss, the block alone,
// its entry state kept for record. It returns neither when the memo is
// off or the block cannot be replayed whole — it has no terminator, or
// the trace's steps, bits or checks end inside it — so that the
// per-instruction walk raises the corrupt-trace error where it always
// did.
func (m *blockMemo) enter(w *batchWalker, fr *batchFrame, pc int, steps, maxSteps int64) (*memoBlock, *transition) {
	if m.off || uint(pc) >= uint(len(fr.blocks)) {
		return nil, nil
	}
	blk := &fr.blocks[pc]
	if blk.n == 0 {
		blk.blockCounts = scanBlock(fr.f.Instrs[pc:])
	}
	if blk.n < 0 || !blk.fits(w, steps, maxSteps) {
		return nil, nil
	}
	key := m.checkKey(w, blk.checks)
	k, clocks := w.k, w.clocks
	entry := m.entry[:0]
	for _, r := range fr.live {
		mark := len(key)
		key = append(key, int64(r))
		for i, v := range fr.ready[r*k : r*k+k][:len(clocks)] {
			key = append(key, max(v, clocks[i])-clocks[i])
		}
		if slices.ContainsFunc(key[mark+1:], func(d int64) bool { return d != 0 }) {
			entry = append(entry, r)
		} else {
			key = key[:mark]
		}
	}
	m.key, m.entry = key, entry
	for _, t := range blk.trans {
		if slices.Equal(t.key, key) {
			m.keyed++
			return blk, t
		}
	}
	copy(m.clock0, clocks)
	return blk, nil
}

// fits reports whether the trace's steps, bits and checks hold a whole
// block with counts c at the walk's cursors.
func (c *blockCounts) fits(w *batchWalker, steps, maxSteps int64) bool {
	return steps+c.n <= maxSteps && w.bits.pos+c.skip <= w.nBits && w.checkOrd+c.checks <= w.nChecks
}

// checkKey packs the outcomes of the next n checks, one bit per (check,
// stream), into m.key: the head of a transition's key.
func (m *blockMemo) checkKey(w *batchWalker, n int64) []int64 {
	key := m.key[:0]
	var word int64
	nb := 0
	for ord := w.checkOrd; ord < w.checkOrd+n; ord++ {
		for _, bits := range w.streams {
			if bits[ord>>6]&(1<<uint(ord&63)) != 0 {
				word |= 1 << nb
			}
			if nb++; nb == 64 {
				key, word, nb = append(key, word), 0, 0
			}
		}
	}
	if nb > 0 {
		key = append(key, word)
	}
	m.key = key
	return key
}

// pick returns the transition in succ, the links from one transition
// in one direction, whose check outcomes are the next checks', or nil.
func (m *blockMemo) pick(w *batchWalker, succ []*transition) *transition {
	key := m.checkKey(w, succ[0].checks)
	for _, t := range succ {
		if slices.Equal(t.key[:len(key)], key) {
			return t
		}
	}
	return nil
}

// link records that t followed last in direction dir, or turns the
// memo off when that would pass its bound.
func (m *blockMemo) link(last *transition, dir int, t *transition) {
	if last == nil || t == nil || m.off {
		return
	}
	if m.words+1 > memoMaxWords {
		m.off, m.blocks = true, nil
		return
	}
	last.next[dir] = append(last.next[dir], t)
	m.words++
}

// settle brings fr's scoreboard up to a chain that ended with last.
// Chained hits move only the clocks; a register the scoreboard may still
// hold in flight is in fr.live, kept from the chain's start. Each is
// set to the clock, which is exact: it is either in flight at last's
// exit, and so among last's registers, which take their exit ready
// times next, or no longer in flight, where any ready time at or before
// the clock behaves alike. A register outside fr.live was already at or
// before the clock at the chain's start.
func (w *batchWalker) settle(fr *batchFrame, last *transition) {
	k, clocks := w.k, w.clocks
	for _, r := range fr.live {
		copy(fr.ready[r*k:r*k+k], clocks)
	}
	for j, r := range last.regs {
		lanes, exit := fr.ready[r*k : r*k+k][:len(clocks)], last.exit[j*k : j*k+k][:len(clocks)]
		for i, c := range clocks {
			lanes[i] = c + exit[i]
		}
	}
	fr.live = last.regs
}

// record stores and returns the transition the per-instruction walk
// just made through blk from the state enter saw, or turns the memo off
// when that would pass a bound.
func (m *blockMemo) record(w *batchWalker, fr *batchFrame, blk *memoBlock) *transition {
	k, clocks := w.k, w.clocks
	var regs []int
	entry := m.entry
	for r := 0; r < len(fr.ready)/k; r++ {
		inFlight := len(entry) > 0 && entry[0] == r
		if inFlight {
			entry = entry[1:]
		}
		for i, v := range fr.ready[r*k : r*k+k][:len(clocks)] {
			inFlight = inFlight || v > clocks[i]
		}
		if inFlight {
			regs = append(regs, r)
		}
	}
	fr.live = regs
	size := len(m.key) + k + len(regs)*(k+1)
	if len(blk.trans) >= memoBlockStates || m.words+size > memoMaxWords {
		m.off, m.blocks = true, nil
		return nil
	}
	t := &transition{blockCounts: blk.blockCounts, key: slices.Clone(m.key), dclock: make([]int64, k), regs: regs, exit: make([]int64, len(regs)*k)}
	for i, c := range clocks {
		t.dclock[i] = c - m.clock0[i]
		for j, r := range regs {
			t.exit[j*k+i] = max(fr.ready[r*k+i], c) - c
		}
	}
	blk.trans = append(blk.trans, t)
	m.words += size
	m.count++
	return t
}

// scanBlock measures the block that starts at code[0]: its length (-1
// when it has no terminator) and the speculative loads and checks before
// its terminator.
func scanBlock(code []Instr) blockCounts {
	var c blockCounts
	for j := range code {
		switch code[j].Op {
		case OpLdC, OpLdFC:
			c.checks++
		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			c.skip++
		case OpBr, OpBeqz, OpBnez, OpCall, OpRet, OpHalt:
			c.n = int64(j + 1)
			return c
		}
	}
	c.n = -1
	return c
}
