package machine

import "math/bits"

// Cycle skipping in the chained walk (DESIGN.md §13). A chain's path is
// a function of the transition it is at, the branch and speculative-load
// bits ahead and the check outcomes ahead on every miss stream. So when
// a link leads back into a transition entered earlier in the same chain,
// the entries since then are one iteration of a cycle that consumed ΔB
// bits, ΔC checks and ΔS steps. If the next M·ΔB bits and every stream's
// next M·ΔC outcomes repeat the previous ΔB and ΔC, the walk would
// retrace the cycle M times, adding one iteration's clock delta each
// time, so it advances the cursors and clocks over all M at once. It
// then goes on from the cycle's last transition, which selects and
// bounds-checks the next link as a chained step always does.
//
// Every cycle in a chain passes a backward branch, so the walk looks
// only where a branch to a pc at or before its own leads to a chained
// transition: a loop's head. There the transition arms, keeping the
// cursors and a snapshot of the clocks, and at each of its next
// maxTries entries it tries the cycle since the arm: one loop iteration,
// then two, and so on, so a loop whose path repeats every few iterations
// is skipped too. An iteration's clock delta is the clocks' rise since
// the arm, which includes whatever the iteration skipped itself, so an
// outer loop whose inner loops were skipped is skipped too.

// maxTries is how many entries after arming a transition tries a skip.
const maxTries = 4

// cycleArm is the walk's state where a transition armed, with the tries
// made since and the failed arms in a row.
type cycleArm struct {
	steps, bits, checks int64 // -1 steps: not armed
	entries             int64 // block entries before it, skipped ones included
	clocks              []int64

	tries, fails int
}

// cycleState is the walk's cycle-skipping state.
type cycleState struct {
	base    int64 // steps at the current chain's start
	skipped int64 // block entries resolved by a skip
}

// skipCycle runs as the walk follows a backward link into t, entries
// block entries into the walk. If t armed earlier in this chain and the
// trace repeats the iteration since then M more times, it advances the
// walk over them and returns the steps and block entries it skipped.
// Otherwise it arms t, or once an arm has used its tries, holds t off
// for 2^f − 1 times the steps the arm spanned, f its failed arms in a
// row up to 12, so that a loop whose path follows its data costs
// little.
func (w *batchWalker) skipCycle(t *transition, steps, maxSteps, entries int64) (int64, int64) {
	a := t.arm
	if a == nil {
		a = &cycleArm{clocks: make([]int64, w.k)}
		t.arm = a
	} else if a.steps >= w.cyc.base {
		if m := w.repeats(a, steps, maxSteps); m > 0 {
			for i, c := range w.clocks {
				w.clocks[i] = c + m*(c-a.clocks[i])
			}
			skipped := m * (entries - a.entries)
			w.cyc.skipped += skipped
			w.bits.pos += m * (w.bits.pos - a.bits)
			w.checkOrd += m * (w.checkOrd - a.checks)
			ds := m * (steps - a.steps)
			a.steps, a.fails = -1, 0
			return ds, skipped
		}
		if a.tries++; a.tries < maxTries {
			return 0, 0
		}
		a.fails = min(a.fails+1, 12)
		t.hold = steps + (1<<a.fails-1)*(steps-a.steps)
		a.steps = -1
		return 0, 0
	}
	a.steps, a.bits, a.checks, a.entries, a.tries = steps, w.bits.pos, w.checkOrd, entries, 0
	copy(a.clocks, w.clocks)
	return 0, 0
}

// minRepeats is the fewest further iterations a skip takes: a loop
// whose path follows its data repeats an iteration a few times by
// chance, and skipping those costs more than walking them.
const minRepeats = 4

// repeats returns how many more times the trace repeats the iteration
// since a, capped by the steps, bits and checks the trace has left, or
// 0 when that is fewer than minRepeats. Iterations are verified in
// rounds of doubling length, so that the compare costs at most about
// twice the iterations it skips, and the first round, which fails on a
// loop whose path follows its data, costs no division.
func (w *batchWalker) repeats(a *cycleArm, steps, maxSteps int64) int64 {
	ds, db, dc := steps-a.steps, w.bits.pos-a.bits, w.checkOrd-a.checks
	if steps+minRepeats*ds > maxSteps || w.bits.pos+minRepeats*db > w.nBits || w.checkOrd+minRepeats*dc > w.nChecks {
		return 0
	}
	lim := int64(minRepeats)
	var m int64
	for g := int64(1); m < lim; g *= 2 {
		n := min(g, lim-m)
		want := n
		if db > 0 {
			n = w.bits.t.words().periodRun(w.bits.pos+m*db, db, n)
		}
		for _, s := range w.streams {
			if dc == 0 || n == 0 {
				break
			}
			n = flatWords(s).periodRun(w.checkOrd+m*dc, dc, n)
		}
		if m += n; n < want {
			break
		}
		if m == 1 {
			lim = (maxSteps - steps) / ds
			if db > 0 {
				lim = min(lim, (w.nBits-w.bits.pos)/db)
			}
			if dc > 0 {
				lim = min(lim, (w.nChecks-w.checkOrd)/dc)
			}
		}
	}
	if m < minRepeats {
		return 0
	}
	return m
}

// wordStream is a bitstream's 64-bit words, in chunks of 1<<shift words.
type wordStream struct {
	chunks [][]uint64
	shift  uint
}

// flatWords is a bitstream held in one slice.
func flatWords(s []uint64) wordStream { return wordStream{[][]uint64{s}, 62} }

// word returns the stream's i-th word, 0 past its end.
func (s wordStream) word(i int64) uint64 {
	if c := i >> s.shift; c < int64(len(s.chunks)) {
		if ch, j := s.chunks[c], i&(1<<s.shift-1); j < int64(len(ch)) {
			return ch[j]
		}
	}
	return 0
}

// window returns the 64 bits from bit p on, the first in bit 0.
func (s wordStream) window(p int64) uint64 {
	i, o := p>>6, uint(p&63)
	v := s.word(i) >> o
	if o != 0 {
		v |= s.word(i+1) << (64 - o)
	}
	return v
}

// periodRun returns how many of the n periods of bits from pos on equal,
// bit for bit, the period before them, comparing 64 bits at a time.
func (s wordStream) periodRun(pos, period, n int64) int64 {
	end := pos + n*period
	for x := pos; x < end; x += 64 {
		if d := s.window(x) ^ s.window(x-period); d != 0 {
			if x += int64(bits.TrailingZeros64(d)); x < end {
				return (x - pos) / period
			}
			break
		}
	}
	return n
}
