// Package profile defines the profile data the speculative framework feeds
// back into the compiler: edge/block execution frequencies (for control
// speculation) and per-site abstract-memory-location (LOC) multisets from
// alias profiling (for data speculation), following §3.2.1 of Lin et al.
// (PLDI 2003). The multisets carry occurrence counts, so a policy can
// compute p(alias) = count(LOC)/executions(site) rather than only the
// binary observed/not-observed fact.
package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ir"
)

// LocKind classifies abstract memory locations.
type LocKind int

const (
	// LocGlobal is a file-scope variable.
	LocGlobal LocKind = iota
	// LocLocal is a function-scope variable (named per function; all
	// activations of a recursive function share one LOC, the usual
	// profiling granularity).
	LocLocal
	// LocHeap is a heap object named by its allocation site, the
	// granularity choice of Chen et al. (LCPC 2002), the paper's [4].
	LocHeap
)

// Loc is an abstract memory location (storage name), named the way the
// serialized profile names it: a variable by its function and symbol
// names, a heap object by its allocation site and context. Names, not
// *ir.Sym pointers, make one collected profile valid on every ir.Clone
// of the program it was collected on. Two same-named locals of one
// function (legal in nested MiniC scopes) share one Loc, so their
// observations merge by summing. Comparable; used as a map key in LOC
// sets.
type Loc struct {
	Kind LocKind
	Fn   string // for LocLocal: the owning function's name
	Name string // for LocGlobal / LocLocal: the variable's name
	Site int    // for LocHeap: allocation-site id
	// Ctx is the immediate caller's call-site id for heap objects
	// allocated inside a callee (1-level call-path naming, the
	// granularity of Chen et al. [4]); 0 for allocations in main.
	Ctx int
}

// VarLoc names the program variable sym of function f (f is ignored for
// a global).
func VarLoc(f *ir.Func, sym *ir.Sym) Loc {
	if sym.Kind == ir.SymGlobal {
		return Loc{Kind: LocGlobal, Name: sym.Name}
	}
	return Loc{Kind: LocLocal, Fn: f.Name, Name: sym.Name}
}

func (l Loc) String() string {
	switch l.Kind {
	case LocGlobal:
		return l.Name
	case LocLocal:
		return l.Fn + ":" + l.Name
	case LocHeap:
		if l.Ctx != 0 {
			return fmt.Sprintf("heap@%d/%d", l.Site, l.Ctx)
		}
		return fmt.Sprintf("heap@%d", l.Site)
	}
	return "loc?"
}

// LocSet is a counted multiset of abstract memory locations: the value is
// the number of times the location was observed. Membership (Has) is
// count > 0, so the set-semantics consumers (ModeProfile) are unchanged by
// the counts.
type LocSet map[Loc]uint64

// Add records one observation of a location.
func (s LocSet) Add(l Loc) { s[l]++ }

// AddN records n observations of a location.
func (s LocSet) AddN(l Loc, n uint64) { s[l] += n }

// Has reports membership (at least one observation).
func (s LocSet) Has(l Loc) bool { return s[l] > 0 }

// Count returns the observation count of a location (0 if absent).
func (s LocSet) Count(l Loc) uint64 { return s[l] }

// AddAll merges every element of t, summing counts.
func (s LocSet) AddAll(t LocSet) {
	for l, n := range t {
		s[l] += n
	}
}

// String renders the set of member locations deterministically for golden
// tests (counts are not rendered; the set view is the stable surface).
func (s LocSet) String() string {
	var names []string
	for l, n := range s {
		if n > 0 {
			names = append(names, l.String())
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}

// FuncCounts is one function's edge profile, indexed by Block.ID.
type FuncCounts struct {
	// Blocks[id] is the execution count of the block with that ID.
	Blocks []uint64
	// Edges[id][i] is the count of the edge from that block to its
	// Succs[i]; nil for a block that never took an edge.
	Edges [][]uint64
}

// Profile aggregates everything a profiling run of the interpreter
// collects. It holds no IR pointers, so one profile applies to every
// clone of the program it was collected on; a profile shared between
// compiles is read-only.
type Profile struct {
	// Funcs holds each function's block and edge counts, keyed by
	// function name.
	Funcs map[string]*FuncCounts

	// LoadLocs maps an indirect-load site id to the LOCs it read.
	LoadLocs map[int]LocSet
	// StoreLocs maps an indirect-store site id to the LOCs it wrote.
	StoreLocs map[int]LocSet
	// CallMod / CallRef map a call-site id to the LOCs (transitively)
	// modified / referenced during the call.
	CallMod map[int]LocSet
	CallRef map[int]LocSet

	// SiteTotal counts the dynamic executions of each reference site
	// (loads, stores and calls share one site-id space): the denominator
	// of p(alias) = LocSet count / SiteTotal. It counts every execution,
	// including ones whose address did not resolve to a nameable LOC, so
	// the per-LOC probabilities never exceed 1 for load/store sites.
	// Consumers treat a zero total as "no count information".
	SiteTotal map[int]uint64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		Funcs:     map[string]*FuncCounts{},
		LoadLocs:  map[int]LocSet{},
		StoreLocs: map[int]LocSet{},
		CallMod:   map[int]LocSet{},
		CallRef:   map[int]LocSet{},
		SiteTotal: map[int]uint64{},
	}
}

// Counts returns (creating if needed) fn's block and edge counts. A new
// entry is sized for every block ID of fn; a profile collects one
// program.
func (p *Profile) Counts(fn *ir.Func) *FuncCounts {
	c := p.Funcs[fn.Name]
	if c == nil {
		n := 0
		for _, b := range fn.Blocks {
			n = max(n, b.ID+1)
		}
		c = &FuncCounts{Blocks: make([]uint64, n), Edges: make([][]uint64, n)}
		p.Funcs[fn.Name] = c
	}
	return c
}

// BlockCount returns the execution count of block id of function fn (0
// when unknown).
func (p *Profile) BlockCount(fn string, id int) uint64 {
	if c := p.Funcs[fn]; c != nil && id < len(c.Blocks) {
		return c.Blocks[id]
	}
	return 0
}

// LoadSet returns (creating if needed) the LOC set for a load site.
func (p *Profile) LoadSet(site int) LocSet {
	s := p.LoadLocs[site]
	if s == nil {
		s = LocSet{}
		p.LoadLocs[site] = s
	}
	return s
}

// StoreSet returns (creating if needed) the LOC set for a store site.
func (p *Profile) StoreSet(site int) LocSet {
	s := p.StoreLocs[site]
	if s == nil {
		s = LocSet{}
		p.StoreLocs[site] = s
	}
	return s
}

// ModSet returns (creating if needed) the mod set for a call site.
func (p *Profile) ModSet(site int) LocSet {
	s := p.CallMod[site]
	if s == nil {
		s = LocSet{}
		p.CallMod[site] = s
	}
	return s
}

// RefSet returns (creating if needed) the ref set for a call site.
func (p *Profile) RefSet(site int) LocSet {
	s := p.CallRef[site]
	if s == nil {
		s = LocSet{}
		p.CallRef[site] = s
	}
	return s
}

// AddExec records one dynamic execution of a reference site.
func (p *Profile) AddExec(site int) { p.AddExecN(site, 1) }

// AddExecN records n dynamic executions of a reference site.
func (p *Profile) AddExecN(site int, n uint64) {
	if p.SiteTotal == nil {
		p.SiteTotal = map[int]uint64{}
	}
	p.SiteTotal[site] += n
}

// Total returns the dynamic execution count of a reference site (0 when
// unknown).
func (p *Profile) Total(site int) uint64 { return p.SiteTotal[site] }

// ApplyEdges writes the collected edge counts into the CFG's Freq/EdgeFreq
// fields, normalized against the entry count of each function, so Freq is
// executions per invocation (entry block ≡ 1). Functions never entered
// (and blocks never executed) get frequency 0. The normalization is a
// per-function positive scale, which preserves every intra-function
// frequency comparison the optimizer makes.
func (p *Profile) ApplyEdges(prog *ir.Program) {
	for _, fn := range prog.Funcs {
		c := p.Funcs[fn.Name]
		entry := float64(p.BlockCount(fn.Name, fn.Entry.ID))
		for _, b := range fn.Blocks {
			b.Freq = 0
			b.EdgeFreq = make([]float64, len(b.Succs))
			if entry == 0 || b.ID >= len(c.Blocks) {
				continue
			}
			b.Freq = float64(c.Blocks[b.ID]) / entry
			counts := c.Edges[b.ID]
			for i := range b.Succs {
				if i < len(counts) {
					b.EdgeFreq[i] = float64(counts[i]) / entry
				}
			}
		}
	}
}

// StaticEstimate fills Freq/EdgeFreq with a Ball-Larus-style static
// heuristic, used when no edge profile is available: branches whose
// targets stay inside the block's innermost loop carry 9/10 of its
// outgoing flow and loop-exiting branches 1/10 (branches with no loop
// involvement split evenly), and block frequencies solve the resulting
// flow equations with the entry injecting one execution. The geometric
// back-edge weight makes loop bodies converge to ~10 executions per entry
// per nesting level, and — unlike weighting blocks by 10^depth with 50/50
// branch splits — the estimate is flow-conserving: a block's frequency
// equals the sum of its incoming edge frequencies.
func StaticEstimate(prog *ir.Program) {
	const (
		stayWeight = 0.9
		exitWeight = 0.1
	)
	for _, fn := range prog.Funcs {
		dt := ir.BuildDomTree(fn)
		_, inLoop := ir.FindLoops(fn, dt)

		// branch probabilities per block, index-aligned with Succs
		probs := make(map[*ir.Block][]float64, len(fn.Blocks))
		for _, b := range fn.Blocks {
			n := len(b.Succs)
			pr := make([]float64, n)
			probs[b] = pr
			if n == 0 {
				continue
			}
			l := inLoop[b]
			stay := 0
			if l != nil {
				for _, s := range b.Succs {
					if l.Blocks[s] {
						stay++
					}
				}
			}
			if l == nil || stay == 0 || stay == n {
				for i := range pr {
					pr[i] = 1 / float64(n)
				}
				continue
			}
			for i, s := range b.Succs {
				if l.Blocks[s] {
					pr[i] = stayWeight / float64(stay)
				} else {
					pr[i] = exitWeight / float64(n-stay)
				}
			}
		}

		// solve Freq(b) = entry(b) + Σ_{p→b} Freq(p)·prob(p→b) by
		// Gauss-Seidel iteration in reverse post-order; each pass shrinks
		// the per-loop error by the back-edge weight, so convergence is
		// geometric. Unreachable blocks are not in the RPO and keep 0.
		order := dt.Order()
		freq := make(map[*ir.Block]float64, len(order))
		for iter := 0; iter < 200; iter++ {
			delta := 0.0
			for _, b := range order {
				f := 0.0
				if b == fn.Entry {
					f = 1
				}
				for _, p := range b.Preds {
					pf := freq[p]
					if pf == 0 {
						continue
					}
					pr := probs[p]
					for i, s := range p.Succs {
						if s == b {
							f += pf * pr[i]
						}
					}
				}
				if d := math.Abs(f - freq[b]); d > delta {
					delta = d
				}
				freq[b] = f
			}
			if delta < 1e-9 {
				break
			}
		}
		for _, b := range fn.Blocks {
			b.Freq = freq[b]
			pr := probs[b]
			b.EdgeFreq = make([]float64, len(b.Succs))
			for i := range b.Succs {
				b.EdgeFreq[i] = freq[b] * pr[i]
			}
		}
	}
}
