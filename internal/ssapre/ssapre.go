package ssapre

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/par"
)

// Run optimizes every function of the program with speculative SSAPRE and
// returns per-function statistics. The program must already carry chi/mu
// lists (alias.Result.AnnotateWorkers) and speculation flags
// (core.AssignFlagsTiered); edge frequencies should be applied (profile.ApplyEdges or
// profile.StaticEstimate) when control speculation is on. After Run the
// program is out of SSA form and ready for code generation.
//
// Functions are optimized concurrently on Options.Workers goroutines
// (0 = all cores, 1 = the serial oracle). Each function's SSAPRE is
// independent; the only program-global state a function pass touches is
// the reference-site counter, which is virtualized per function during
// the parallel phase and renumbered in program order afterwards, so the
// resulting IR is bit-for-bit identical to a serial run.
// A non-nil error comes from Options.VerifyHook (the per-pass
// speculation-soundness checker); the surfaced error is the one a serial
// run would have hit first, and the program should be considered invalid.
func Run(prog *ir.Program, opts Options) (map[string]*Stats, error) {
	if opts.Rounds <= 0 {
		// each round unifies one level of an expression tree (the next
		// round's canonicalization sees the copies the previous round
		// made); rounds stop early once a pass changes nothing
		opts.Rounds = 8
	}
	stats := make([]*Stats, len(prog.Funcs))
	sites := make([]*siteAlloc, len(prog.Funcs))
	if err := par.Each(opts.Workers, len(prog.Funcs), func(i int) error {
		sites[i] = &siteAlloc{}
		var ferr error
		stats[i], ferr = runFunc(prog.Funcs[i], opts, sites[i])
		return ferr
	}); err != nil {
		return nil, err
	}
	// Renumber the sites allocated during code motion in program order:
	// a serial run hands ids to function i's new check loads before
	// function i+1 runs, and within one function allocation order is
	// deterministic, so this reproduces the serial numbering exactly.
	// Ids for placeholders that a later round zeroed (the reload was
	// rewritten away) are still consumed, as they were serially.
	for _, sa := range sites {
		for _, a := range sa.assigns {
			id := prog.NextSite()
			if a.Site < 0 {
				a.Site = id
			}
		}
	}
	res := make(map[string]*Stats, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		res[fn.Name] = stats[i]
	}
	return res, nil
}

// siteAlloc hands out per-function placeholder reference-site ids (negative,
// so they can never collide with real ids) and records the receiving
// statements in allocation order for the post-parallel renumbering.
type siteAlloc struct {
	assigns []*ir.Assign
}

func (sa *siteAlloc) alloc(a *ir.Assign) {
	sa.assigns = append(sa.assigns, a)
	a.Site = -len(sa.assigns)
}

func runFunc(fn *ir.Func, opts Options, sites *siteAlloc) (*Stats, error) {
	stats := &Stats{}
	hook := func(pass string, inSSA bool) error {
		if opts.VerifyHook == nil {
			return nil
		}
		return opts.VerifyHook(fn, pass, inSSA)
	}
	var virtuals []*ir.Sym
	if opts.Alias != nil {
		virtuals = opts.Alias.FuncVirtuals[fn]
	}
	var synKeys map[ir.Stmt]string
	if opts.DataSpec == core.ModeHeuristic {
		synKeys = ir.SyntaxKeys(fn)
	}
	ssa := core.BuildSSA(fn, virtuals)
	preTemps := map[*ir.Sym]bool{}
	checkedTemps := map[*ir.Sym]bool{}
	scratch := newWebScratch(ssa)

	for round := 0; round < opts.Rounds; round++ {
		copies := buildResolver(fn, checkedTemps)
		classes := collectExprs(ssa, opts, synKeys, copies)
		stats.ExprClasses += len(classes)
		scratch.reach.build(classes)
		any := false
		for _, ec := range classes {
			w := newWeb(ssa, ec, opts, copies, scratch)
			w.preTemps = preTemps
			w.checkedTemps = checkedTemps
			w.sites = sites
			w.phiInsertion()
			w.rename()
			w.downSafety()
			w.willBeAvail()
			w.finalize()
			w.codeMotion()
			if w.stats.Eliminated > 0 || w.stats.Insertions > 0 {
				any = true
			}
			stats.Add(w.stats)
		}
		copyProp(fn, preTemps)
		if opts.Verify {
			mustHold(fn)
		}
		// verify only rounds that changed the IR (plus the first, so a
		// broken input is caught even when PRE finds nothing)
		if any || round == 0 {
			if err := hook(fmt.Sprintf("ssapre-round-%d", round+1), true); err != nil {
				return stats, err
			}
		}
		if !any {
			break
		}
	}
	if countVisits != nil {
		countVisits(scratch.blocks, scratch.stmts)
	}
	if !opts.NoStrength {
		strengthReduce(ssa, stats)
		copyProp(fn, preTemps)
		if opts.Verify {
			mustHold(fn)
		}
		if err := hook("strength-reduce", true); err != nil {
			return stats, err
		}
	}
	dce(fn, preTemps)
	outOfSSA(fn, preTemps)
	if opts.Verify {
		if err := ir.Verify(fn); err != nil {
			panic(fmt.Sprintf("ssapre: invalid IR after out-of-SSA: %v", err))
		}
	}
	if err := hook("out-of-ssa", false); err != nil {
		return stats, err
	}
	return stats, nil
}

// mustHold panics when a transformation broke the IR or SSA invariants —
// only reachable with Options.Verify, i.e. under test.
func mustHold(fn *ir.Func) {
	if err := ir.Verify(fn); err != nil {
		panic(fmt.Sprintf("ssapre: invalid IR: %v", err))
	}
	if err := ir.VerifySSA(fn); err != nil {
		panic(fmt.Sprintf("ssapre: invalid SSA: %v", err))
	}
}

// preTemp registers a materialization temporary so out-of-SSA coalesces
// all of its versions into one register (the advanced-load / check-load
// pairing requires the ALAT key register to be stable).
func (w *web) preTemp(t *ir.Sym) {
	w.preTemps[t] = true
}
