// Package mutate seeds speculation-soundness bugs into the real
// pipeline's intermediate programs — deleted checks, retargeted check
// registers, dropped χs, corrupted phi arguments, loads hoisted past
// aliasing stores, and leak-shaped reorderings that let a speculative
// value reach an address computation or branch before its check — and
// pairs each mutation with the specheck layer that must catch it. The companion test asserts that every mutator is
// applicable somewhere on the bundled workloads, that the checker flags
// every single application, and that the unmutated pipeline stays
// clean. It is the detection half of the verifier's own verification:
// the clean-matrix test proves specheck accepts correct pipelines, this
// proves it rejects broken ones.
package mutate

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
)

// Stage identifies the pipeline point a mutator operates on, which also
// selects the specheck layer expected to detect it.
type Stage int

const (
	// StageAnnotated: after alias annotation and flag assignment, before
	// SSA. Checked by CheckAnnotated + CheckFlags.
	StageAnnotated Stage = iota
	// StageSSA: after core.BuildSSA (no PRE). Checked by CheckSSAFunc.
	StageSSA
	// StagePostPRE: after speculative SSAPRE and out-of-SSA conversion.
	// Checked by CheckPostSSA.
	StagePostPRE
	// StageSchedule: after SSAPRE; the mutation plays the role of a buggy
	// scheduler. Checked by SnapshotMemOrder + CheckSchedule.
	StageSchedule
	// StageMachine: after code generation. Checked by CheckMachine.
	StageMachine
)

func (s Stage) String() string {
	switch s {
	case StageAnnotated:
		return "annotated"
	case StageSSA:
		return "ssa"
	case StagePostPRE:
		return "post-pre"
	case StageSchedule:
		return "schedule"
	case StageMachine:
		return "machine"
	}
	return "stage?"
}

// Target is a program compiled up to a mutator's stage.
type Target struct {
	Stage Stage
	Prog  *ir.Program
	Code  *machine.Program // StageMachine only
	Env   *specheck.Env
}

// Build compiles src up to stage with profile-driven speculation (the
// mode that generates advanced/check loads), mirroring the real
// pipeline's stage order. Each call builds from scratch: mutations are
// destructive, so every (mutator, site) pair needs a fresh target.
func Build(src string, args []int64, stage Stage) (*Target, error) {
	file, err := source.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := source.Lower(file)
	if err != nil {
		return nil, err
	}
	alias.RefineWorkers(prog, 0)
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	prof := profile.New()
	if _, err := interp.Run(prog, interp.Options{
		CollectEdges: true, CollectAlias: true, Profile: prof, Args: args,
	}); err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	prof.ApplyEdges(prog)
	core.AssignFlagsTiered(prog, ar, prof, core.ModeProfile, core.DefaultPolicy(), nil)
	t := &Target{
		Stage: stage,
		Prog:  prog,
		Env:   &specheck.Env{Alias: ar, Prof: prof, Mode: core.ModeProfile},
	}
	if stage == StageAnnotated {
		return t, nil
	}
	if stage == StageSSA {
		for _, fn := range prog.Funcs {
			core.BuildSSA(fn, ar.FuncVirtuals[fn])
		}
		return t, nil
	}
	if _, err := ssapre.Run(prog, ssapre.Options{
		DataSpec: core.ModeProfile, ControlSpec: true, Alias: ar, Workers: 1,
	}); err != nil {
		return nil, err
	}
	if stage == StageMachine {
		code, err := codegen.LowerWorkers(prog, 0)
		if err != nil {
			return nil, err
		}
		t.Code = code
	}
	return t, nil
}

// Check runs the specheck layer matching the target's stage and returns
// its violations. For StageSchedule the caller must have snapshotted the
// memory order before mutating (see Mutator.Run, which handles it).
func (t *Target) Check(before specheck.MemOrder) []specheck.Violation {
	pass := "mutate-" + t.Stage.String()
	switch t.Stage {
	case StageAnnotated:
		vs := specheck.CheckAnnotated(t.Prog, t.Env, pass)
		return append(vs, specheck.CheckFlags(t.Prog, t.Env, pass)...)
	case StageSSA:
		var vs []specheck.Violation
		for _, fn := range t.Prog.Funcs {
			vs = append(vs, specheck.CheckSSAFunc(fn, pass)...)
		}
		return vs
	case StagePostPRE:
		var vs []specheck.Violation
		for _, fn := range t.Prog.Funcs {
			vs = append(vs, specheck.CheckPostSSA(fn, pass)...)
		}
		return vs
	case StageSchedule:
		return specheck.CheckSchedule(t.Prog, before, pass)
	case StageMachine:
		vs := specheck.CheckMachine(t.Code, pass)
		return append(vs, specheck.CheckLeaks(t.Code, pass)...)
	}
	return nil
}

// A Mutator plants one class of speculation bug. Sites reports how many
// places it applies to in the target; Apply mutates the i-th (0-based).
// Site enumeration is deterministic (program order), so a site index
// from one Build names the same site in a fresh Build of the same
// source.
type Mutator struct {
	Name  string
	Stage Stage
	// What the mutation models and which rule must catch it.
	Doc   string
	Sites func(t *Target) int
	Apply func(t *Target, site int)
}

// Run rebuilds nothing: on a fresh target it applies site i and returns
// the violations the stage's checker reports. StageSchedule snapshots
// the pre-mutation memory order first, so the mutation plays the buggy
// scheduler against the genuine baseline.
func (m *Mutator) Run(t *Target, site int) []specheck.Violation {
	var before specheck.MemOrder
	if m.Stage == StageSchedule {
		before = specheck.SnapshotMemOrder(t.Prog)
	}
	m.Apply(t, site)
	return t.Check(before)
}

// --- site enumeration helpers ---

// eachStmt visits every statement in deterministic program order.
func eachStmt(prog *ir.Program, visit func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt)) {
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for i, s := range b.Stmts {
				visit(fn, b, i, s)
			}
		}
	}
}

// nthStmt drives eachStmt with a countdown: pred decides applicability,
// act fires on the n-th applicable statement. Returns the number of
// applicable statements.
func nthStmt(prog *ir.Program, n int, pred func(s ir.Stmt) bool, act func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt)) int {
	count := 0
	eachStmt(prog, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
		if !pred(s) {
			return
		}
		if count == n && act != nil {
			act(fn, b, i, s)
		}
		count++
	})
	return count
}

func vvChiIndex(ar *alias.Result, site int, chis []*ir.Chi) int {
	class, ok := ar.SiteClass[site]
	if !ok {
		return -1
	}
	vv, ok := ar.VV[class]
	if !ok {
		return -1
	}
	for i, c := range chis {
		if c.Sym == vv {
			return i
		}
	}
	return -1
}

func vvMuIndex(ar *alias.Result, site int, mus []*ir.Mu) int {
	class, ok := ar.SiteClass[site]
	if !ok {
		return -1
	}
	vv, ok := ar.VV[class]
	if !ok {
		return -1
	}
	for i, m := range mus {
		if m.Sym == vv {
			return i
		}
	}
	return -1
}

// advCheckSyms returns, in program order, the distinct symbols that are
// both fed by an advanced load and consumed by a check load in fn.
func advCheckSyms(fn *ir.Func) []*ir.Sym {
	adv := map[*ir.Sym]bool{}
	chk := map[*ir.Sym]bool{}
	var order []*ir.Sym
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			a, ok := s.(*ir.Assign)
			if !ok {
				continue
			}
			if a.Spec.AdvLoad && !adv[a.Dst.Sym] {
				adv[a.Dst.Sym] = true
				order = append(order, a.Dst.Sym)
			}
			if a.Spec.CheckLoad {
				chk[a.Dst.Sym] = true
			}
		}
	}
	var both []*ir.Sym
	for _, s := range order {
		if chk[s] {
			both = append(both, s)
		}
	}
	return both
}

// loadShapedCheck reports whether a is a check load that codegen lowers
// through its load path (mirrors specheck's loadShaped filter).
func loadShapedCheck(a *ir.Assign) bool {
	if !a.Spec.CheckLoad {
		return false
	}
	switch a.RK {
	case ir.RHSLoad:
		return true
	case ir.RHSCopy:
		r, ok := a.A.(*ir.Ref)
		return ok && r.Sym.InMemory()
	}
	return false
}

// fencedLoadPairs enumerates (block, fenceIdx, loadIdx) pairs where a
// store/barrier precedes a load in the same block — the pairs a buggy
// scheduler could swap.
type fencedPair struct {
	b           *ir.Block
	fence, load int
}

func fencedLoadPairs(prog *ir.Program) []fencedPair {
	var pairs []fencedPair
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			fence := -1
			for i, s := range b.Stmts {
				switch k := stmtScheduleKind(s); k {
				case 2: // fence
					fence = i
				case 1: // load
					if fence >= 0 {
						pairs = append(pairs, fencedPair{b, fence, i})
					}
				}
			}
		}
	}
	return pairs
}

// stmtScheduleKind is the mutator-side mirror of the schedule checker's
// classification: 2 = fence (store/call/print/alloc), 1 = load, 0 = other.
// ALAT-register copies are deliberately not needed here — hoisting a
// plain load past a store is already a contract violation.
func stmtScheduleKind(s ir.Stmt) int {
	switch t := s.(type) {
	case *ir.Assign:
		if t.Dst.Sym.InMemory() {
			return 2
		}
		switch t.RK {
		case ir.RHSLoad:
			return 1
		case ir.RHSAlloc:
			return 2
		case ir.RHSCopy:
			if r, ok := t.A.(*ir.Ref); ok && r.Sym.InMemory() {
				return 1
			}
		}
	case *ir.IStore, *ir.Call, *ir.Print:
		return 2
	}
	return 0
}

// checkInstrs returns the indices of ld.c/ldf.c instructions of every
// function in sorted-name program order, as (func, instr) pairs.
type machineSite struct {
	fn    *machine.FuncCode
	instr int
}

func checkInstrs(code *machine.Program) []machineSite {
	var sites []machineSite
	for _, name := range sortedFuncNames(code) {
		fc := code.Funcs[name]
		for i, in := range fc.Instrs {
			if in.Op == machine.OpLdC || in.Op == machine.OpLdFC {
				sites = append(sites, machineSite{fc, i})
			}
		}
	}
	return sites
}

// checkWebs enumerates the (function, register) coverage webs: each
// register of a function that at least one ld.c/ldf.c validates.
type checkWeb struct {
	fn  *machine.FuncCode
	reg int
}

func checkWebs(code *machine.Program) []checkWeb {
	var webs []checkWeb
	for _, name := range sortedFuncNames(code) {
		fc := code.Funcs[name]
		seen := map[int]bool{}
		for _, in := range fc.Instrs {
			if (in.Op == machine.OpLdC || in.Op == machine.OpLdFC) && !seen[in.Rd] {
				seen[in.Rd] = true
				webs = append(webs, checkWeb{fc, in.Rd})
			}
		}
	}
	return webs
}

// leakSites enumerates, in sorted-name program order, the unchecked
// speculation sites of every function: ld.c/ldf.c instructions whose
// in-state is provider ∧ crossed ∧ ¬validated on the checked register —
// the exact points where sliding a consumer above the check (or
// removing the check) manufactures a speculative leak. The leak-shaped
// mutators below are all seeded here, so each one is a guaranteed true
// positive for Layer 3 by construction. Mutants are analyzed, never
// executed, so mutations may fabricate loads whose address register
// holds a non-address value.
func leakSites(code *machine.Program) []machineSite {
	var sites []machineSite
	for _, name := range sortedFuncNames(code) {
		fc := code.Funcs[name]
		for _, i := range specheck.UncheckedSpecSites(fc) {
			sites = append(sites, machineSite{fc, i})
		}
	}
	return sites
}

func sortedFuncNames(code *machine.Program) []string {
	names := make([]string, 0, len(code.Funcs))
	for name := range code.Funcs {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// All returns the mutator suite.
func All() []*Mutator {
	return []*Mutator{
		{
			Name: "drop-vv-chi", Stage: StageAnnotated,
			Doc: "removes an indirect store's virtual-variable chi — the may-def vanishes and later phases would wrongly treat the store as irrelevant; caught by missing-vv-chi",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && st.Site != 0 && vvChiIndex(t.Env.Alias, st.Site, st.Chis) >= 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && st.Site != 0 && vvChiIndex(t.Env.Alias, st.Site, st.Chis) >= 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					st := s.(*ir.IStore)
					k := vvChiIndex(t.Env.Alias, st.Site, st.Chis)
					st.Chis = append(st.Chis[:k:k], st.Chis[k+1:]...)
				})
			},
		},
		{
			Name: "drop-vv-mu", Stage: StageAnnotated,
			Doc: "removes an indirect load's virtual-variable mu — the load loses its HSSA value name; caught by missing-vv-mu",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && a.RK == ir.RHSLoad && a.Site != 0 && vvMuIndex(t.Env.Alias, a.Site, a.Mus) >= 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && a.RK == ir.RHSLoad && a.Site != 0 && vvMuIndex(t.Env.Alias, a.Site, a.Mus) >= 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					a := s.(*ir.Assign)
					k := vvMuIndex(t.Env.Alias, a.Site, a.Mus)
					a.Mus = append(a.Mus[:k:k], a.Mus[k+1:]...)
				})
			},
		},
		{
			Name: "duplicate-chi", Stage: StageAnnotated,
			Doc: "names the same symbol twice in a chi list — a malformed may-def set; caught by duplicate-list-entry",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && len(st.Chis) > 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && len(st.Chis) > 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					st := s.(*ir.IStore)
					dup := *st.Chis[0]
					st.Chis = append(st.Chis, &dup)
				})
			},
		},
		{
			Name: "flip-chi-flag", Stage: StageAnnotated,
			Doc: "inverts a chi's speculation flag — a highly-likely update becomes ignorable (unsound elision) or vice versa; caught by wrong-chi-flag",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && st.Site != 0 && len(st.Chis) > 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					st, ok := s.(*ir.IStore)
					return ok && st.Site != 0 && len(st.Chis) > 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					chi := s.(*ir.IStore).Chis[0]
					chi.Spec = !chi.Spec
				})
			},
		},
		{
			Name: "flip-mu-flag", Stage: StageAnnotated,
			Doc: "inverts a load mu's speculation flag against the profile policy; caught by wrong-mu-flag",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && a.RK == ir.RHSLoad && a.Site != 0 && len(a.Mus) > 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && a.RK == ir.RHSLoad && a.Site != 0 && len(a.Mus) > 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					mu := s.(*ir.Assign).Mus[0]
					mu.Spec = !mu.Spec
				})
			},
		},
		{
			Name: "corrupt-phi-arg", Stage: StageSSA,
			Doc: "points a phi argument at an SSA version that no definition produces; caught by def-use",
			Sites: func(t *Target) int {
				n := 0
				for _, fn := range t.Prog.Funcs {
					for _, b := range fn.Blocks {
						for _, p := range b.Phis {
							if len(p.Args) > 0 {
								n++
							}
						}
					}
				}
				return n
			},
			Apply: func(t *Target, site int) {
				n := 0
				for _, fn := range t.Prog.Funcs {
					for _, b := range fn.Blocks {
						for _, p := range b.Phis {
							if len(p.Args) == 0 {
								continue
							}
							if n == site {
								p.Args[0] = &ir.Ref{Sym: p.Args[0].Sym, Ver: 99999}
								return
							}
							n++
						}
					}
				}
			},
		},
		{
			Name: "use-undef-version", Stage: StageSSA,
			Doc: "rewrites an operand to an SSA version that was never defined; caught by def-use",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					if !ok {
						return false
					}
					r, ok := a.A.(*ir.Ref)
					return ok && r.Ver > 0
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					if !ok {
						return false
					}
					r, ok := a.A.(*ir.Ref)
					return ok && r.Ver > 0
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					a := s.(*ir.Assign)
					r := a.A.(*ir.Ref)
					a.A = &ir.Ref{Sym: r.Sym, Ver: r.Ver + 99999}
				})
			},
		},
		{
			Name: "swap-def-use", Stage: StageSSA,
			Doc: "moves a definition below a same-block use of it — the def no longer dominates the use; caught by def-use",
			Sites: func(t *Target) int {
				return len(defUsePairs(t.Prog))
			},
			Apply: func(t *Target, site int) {
				pairs := defUsePairs(t.Prog)
				p := pairs[site]
				p.b.Stmts[p.def], p.b.Stmts[p.use] = p.b.Stmts[p.use], p.b.Stmts[p.def]
			},
		},
		{
			Name: "unflag-adv-load", Stage: StagePostPRE,
			Doc: "clears every AdvLoad flag feeding a checked register — the ld.c validates an ALAT entry nothing allocates; caught by check-without-provider",
			Sites: func(t *Target) int {
				n := 0
				for _, fn := range t.Prog.Funcs {
					n += len(advCheckSyms(fn))
				}
				return n
			},
			Apply: func(t *Target, site int) {
				n := 0
				for _, fn := range t.Prog.Funcs {
					for _, sym := range advCheckSyms(fn) {
						if n == site {
							for _, b := range fn.Blocks {
								for _, s := range b.Stmts {
									if a, ok := s.(*ir.Assign); ok && a.Dst.Sym == sym && a.Spec.AdvLoad {
										a.Spec.AdvLoad = false
									}
								}
							}
							return
						}
						n++
					}
				}
			},
		},
		{
			Name: "retarget-check", Stage: StagePostPRE,
			Doc: "moves a check load onto a fresh register no advanced load feeds — the IR-level twin of the retargeted ld.c; caught by check-without-provider",
			Sites: func(t *Target) int {
				return nthStmt(t.Prog, -1, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && loadShapedCheck(a)
				}, nil)
			},
			Apply: func(t *Target, site int) {
				nthStmt(t.Prog, site, func(s ir.Stmt) bool {
					a, ok := s.(*ir.Assign)
					return ok && loadShapedCheck(a)
				}, func(fn *ir.Func, b *ir.Block, i int, s ir.Stmt) {
					a := s.(*ir.Assign)
					a.Dst = &ir.Ref{Sym: fn.NewTemp(a.Dst.Sym.Type)}
				})
			},
		},
		{
			Name: "hoist-load-past-store", Stage: StageSchedule,
			Doc: "swaps a load with an earlier store in its block, as a buggy scheduler would — the load now reads memory the store has not yet written; caught by load-crossed-store",
			Sites: func(t *Target) int {
				return len(fencedLoadPairs(t.Prog))
			},
			Apply: func(t *Target, site int) {
				pairs := fencedLoadPairs(t.Prog)
				p := pairs[site]
				p.b.Stmts[p.fence], p.b.Stmts[p.load] = p.b.Stmts[p.load], p.b.Stmts[p.fence]
			},
		},
		{
			Name: "delete-check-machine", Stage: StageMachine,
			Doc: "replaces every ld.c of one register in one function with nops — the classic deleted check: the advanced load's value is then consumed with a store possibly in between. Deletion is per coverage web (all checks of the register), since a single stacked check's removal is masked by the next check and is genuinely harmless; caught by use-crosses-store",
			Sites: func(t *Target) int {
				return len(checkWebs(t.Code))
			},
			Apply: func(t *Target, site int) {
				w := checkWebs(t.Code)[site]
				for i, in := range w.fn.Instrs {
					if (in.Op == machine.OpLdC || in.Op == machine.OpLdFC) && in.Rd == w.reg {
						w.fn.Instrs[i] = machine.Instr{Op: machine.OpNop}
					}
				}
			},
		},
		{
			Name: "retarget-check-machine", Stage: StageMachine,
			Doc: "points a ld.c at a register no advanced load feeds; caught by check-without-provider",
			Sites: func(t *Target) int {
				return len(checkInstrs(t.Code))
			},
			Apply: func(t *Target, site int) {
				s := checkInstrs(t.Code)[site]
				s.fn.Instrs[s.instr].Rd = s.fn.NumRegs + 7
			},
		},
		{
			Name: "reorder-sink-above-check", Stage: StageMachine,
			Doc: "slides a branch sink on the speculative register to just above its ld.c, as a buggy scheduler would — the condition reads a value a store has crossed and nothing has validated; caught by speculative-leak",
			Sites: func(t *Target) int {
				return len(leakSites(t.Code))
			},
			Apply: func(t *Target, site int) {
				s := leakSites(t.Code)[site]
				pos := harden.InsertBefore(s.fn, map[int]machine.Instr{
					s.instr: {Op: machine.OpBnez, Rs: s.fn.Instrs[s.instr].Rd, Target: -1},
				})
				p := pos[s.instr]
				s.fn.Instrs[p].Target = p + 1
			},
		},
		{
			Name: "delete-check-address-sink", Stage: StageMachine,
			Doc: "replaces a ld.c with a plain load ADDRESSED BY the speculative register — the check vanishes and the unvalidated value steers memory traffic in the same breath; caught by speculative-leak",
			Sites: func(t *Target) int {
				return len(leakSites(t.Code))
			},
			Apply: func(t *Target, site int) {
				s := leakSites(t.Code)[site]
				fresh := s.fn.NumRegs
				s.fn.NumRegs++
				s.fn.Instrs[s.instr] = machine.Instr{Op: machine.OpLd, Rd: fresh, Rs: s.fn.Instrs[s.instr].Rd}
			},
		},
		{
			Name: "retarget-check-past-sink", Stage: StageMachine,
			Doc: "moves a ld.c onto a fresh register and drops a branch on the original register just below it — the consumer now sits past a check that no longer validates what it reads; caught by speculative-leak (and check-without-provider for the stray check)",
			Sites: func(t *Target) int {
				return len(leakSites(t.Code))
			},
			Apply: func(t *Target, site int) {
				s := leakSites(t.Code)[site]
				rd := s.fn.Instrs[s.instr].Rd
				fresh := s.fn.NumRegs
				s.fn.NumRegs++
				s.fn.Instrs[s.instr].Rd = fresh
				after := s.instr + 1
				pos := harden.InsertBefore(s.fn, map[int]machine.Instr{
					after: {Op: machine.OpBnez, Rs: rd, Target: -1},
				})
				p := pos[after]
				s.fn.Instrs[p].Target = p + 1
			},
		},
	}
}

// defUsePairs finds same-block (def, use) statement index pairs where
// the use statement's A operand reads exactly the version the def
// statement's Dst produces, and the two are distinct statements.
type defUsePair struct {
	b        *ir.Block
	def, use int
}

func defUsePairs(prog *ir.Program) []defUsePair {
	var pairs []defUsePair
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for i, s := range b.Stmts {
				d, ok := s.(*ir.Assign)
				if !ok || d.Dst.Sym.InMemory() || d.Dst.Ver <= 0 {
					continue
				}
				for j := i + 1; j < len(b.Stmts); j++ {
					u, ok := b.Stmts[j].(*ir.Assign)
					if !ok {
						continue
					}
					if r, ok := u.A.(*ir.Ref); ok && r.Sym == d.Dst.Sym && r.Ver == d.Dst.Ver {
						pairs = append(pairs, defUsePair{b, i, j})
						break
					}
				}
			}
		}
	}
	return pairs
}
