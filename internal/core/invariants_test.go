package core

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workloads"
)

// TestSSAInvariantsOnWorkloads builds the speculative SSA form for every
// function of every workload kernel and checks the SSA contract:
// single definition per version, every used version defined, and each
// definition dominating its uses.
func TestSSAInvariantsOnWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			file, err := source.Parse(w.Src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := source.Lower(file)
			if err != nil {
				t.Fatal(err)
			}
			ar := alias.Analyze(prog, alias.Options{TypeBased: true})
			ar.AnnotateWorkers(prog, 0)
			AssignFlagsTiered(prog, ar, nil, ModeHeuristic, DefaultPolicy(), nil)
			for _, fn := range prog.Funcs {
				ssa := BuildSSA(fn, ar.FuncVirtuals[fn])
				if err := ir.VerifySSA(fn); err != nil {
					t.Fatalf("%s: %v", fn.Name, err)
				}
				checkDefsDominateUses(t, ssa)
				checkChiChainsTerminate(t, ssa)
			}
		})
	}
}

// checkDefsDominateUses verifies that every versioned use is reached by
// its definition in the dominator tree.
func checkDefsDominateUses(t *testing.T, s *SSA) {
	t.Helper()
	fn := s.Fn
	useAt := func(b *ir.Block, op ir.Operand) {
		r, ok := op.(*ir.Ref)
		if !ok || r.Ver == 0 {
			return
		}
		d, ok := s.Def[SymVer{Sym: r.Sym, Ver: r.Ver}]
		if !ok {
			t.Errorf("%s: use of %s_%d has no recorded definition", fn.Name, r.Sym.Name, r.Ver)
			return
		}
		if d.Block != nil && !s.DT.Dominates(d.Block, b) {
			t.Errorf("%s: def of %s_%d in B%d does not dominate use in B%d",
				fn.Name, r.Sym.Name, r.Ver, d.Block.ID, b.ID)
		}
	}
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			for _, op := range ir.Uses(st) {
				useAt(b, op)
			}
			// mu versions must be defined too
			switch x := st.(type) {
			case *ir.Assign:
				for _, mu := range x.Mus {
					if mu.Ver != 0 {
						if _, ok := s.Def[SymVer{Sym: mu.Sym, Ver: mu.Ver}]; !ok {
							t.Errorf("%s: mu(%s_%d) undefined", fn.Name, mu.Sym.Name, mu.Ver)
						}
					}
				}
			case *ir.Call:
				for _, mu := range x.Mus {
					if mu.Ver != 0 {
						if _, ok := s.Def[SymVer{Sym: mu.Sym, Ver: mu.Ver}]; !ok {
							t.Errorf("%s: mu(%s_%d) undefined", fn.Name, mu.Sym.Name, mu.Ver)
						}
					}
				}
			}
		}
		if b.Term.Cond != nil {
			useAt(b, b.Term.Cond)
		}
		if b.Term.Val != nil {
			useAt(b, b.Term.Val)
		}
		// phi args must be defined in (a block dominating) the pred
		for _, phi := range b.Phis {
			for i, arg := range phi.Args {
				if arg.Ver == 0 {
					continue
				}
				d, ok := s.Def[SymVer{Sym: arg.Sym, Ver: arg.Ver}]
				if !ok {
					t.Errorf("%s: phi arg %s_%d undefined", fn.Name, arg.Sym.Name, arg.Ver)
					continue
				}
				pred := b.Preds[i]
				if d.Block != nil && !s.DT.Dominates(d.Block, pred) {
					t.Errorf("%s: phi arg %s_%d def in B%d does not dominate pred B%d",
						fn.Name, arg.Sym.Name, arg.Ver, d.Block.ID, pred.ID)
				}
			}
		}
	}
}

// checkChiChainsTerminate walks every chi's old-version chain to entry,
// catching cycles or dangling links in the speculative use-def chains.
func checkChiChainsTerminate(t *testing.T, s *SSA) {
	t.Helper()
	for sv, d := range s.Def {
		if d.Kind != DefChi {
			continue
		}
		seen := map[int]bool{}
		cur := sv.Ver
		for {
			if seen[cur] {
				t.Fatalf("%s: chi chain for %s cycles at version %d", s.Fn.Name, sv.Sym.Name, cur)
			}
			seen[cur] = true
			dd, ok := s.Def[SymVer{Sym: sv.Sym, Ver: cur}]
			if !ok || dd.Kind != DefChi {
				break
			}
			cur = dd.Chi.OldVer
		}
	}
}

// TestSpecHomeMonotone: the speculative walk never increases the version
// and always terminates at a non-chi definition or a flagged chi.
func TestSpecHomeMonotone(t *testing.T) {
	for _, w := range workloads.All() {
		file, err := source.Parse(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := source.Lower(file)
		if err != nil {
			t.Fatal(err)
		}
		ar := alias.Analyze(prog, alias.Options{TypeBased: true})
		ar.AnnotateWorkers(prog, 0)
		AssignFlagsTiered(prog, ar, nil, ModeHeuristic, DefaultPolicy(), nil)
		for _, fn := range prog.Funcs {
			ssa := BuildSSA(fn, ar.FuncVirtuals[fn])
			keys := ir.SyntaxKeys(fn)
			ctx := &WalkContext{Mode: ModeHeuristic, Keys: keys, SynKey: "<none>"}
			for sv := range ssa.Def {
				home, _ := ssa.SpecHome(sv.Sym, sv.Ver, ctx)
				if home > sv.Ver {
					t.Fatalf("%s: SpecHome(%s_%d) = %d moved forward", fn.Name, sv.Sym.Name, sv.Ver, home)
				}
				if d, ok := ssa.Def[SymVer{Sym: sv.Sym, Ver: home}]; ok && d.Kind == DefChi && !d.Chi.Spec {
					// stopping at an unflagged chi is only allowed when
					// the context blocks the skip
					if !ctx.BlocksSkip(d.Stmt) {
						t.Fatalf("%s: SpecHome stopped at skippable chi %s_%d", fn.Name, sv.Sym.Name, home)
					}
				}
			}
		}
	}
}
