package specheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/profile"
)

// Layer 1: speculative SSA invariants on the IR. The entry points below
// are called by repro.CompileCtx at the pipeline stage named by their
// pass argument; each re-derives the expected state from the alias result
// and flag policy rather than trusting the annotation code under test.

// CheckAnnotated verifies the chi/mu lists against the alias result right
// after annotation (and again after flag assignment): every indirect
// store site carries a χ for its class's virtual variable, every indirect
// load site a μ for it, every direct store to an aliased scalar a χ on
// the scalar's class summary, and no list names a symbol twice or names a
// register-only symbol.
func CheckAnnotated(prog *ir.Program, env *Env, pass string) []Violation {
	ar := env.Alias
	var vs []Violation
	add := func(f *ir.Func, b *ir.Block, rule, format string, args ...any) {
		vs = append(vs, Violation{
			Pass: pass, Func: f.Name, Block: b.ID, Instr: -1,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	checkList := func(f *ir.Func, b *ir.Block, what string, syms []*ir.Sym) {
		seen := map[*ir.Sym]bool{}
		for _, s := range syms {
			if s == nil {
				add(f, b, "nil-list-entry", "%s list carries a nil symbol", what)
				continue
			}
			if seen[s] {
				add(f, b, "duplicate-list-entry", "%s list names %s twice", what, s.Name)
			}
			seen[s] = true
			if !s.InMemory() && s.Kind != ir.SymVirtual {
				add(f, b, "register-list-entry", "%s list names register symbol %s", what, s.Name)
			}
		}
	}
	hasSym := func(syms []*ir.Sym, want *ir.Sym) bool {
		for _, s := range syms {
			if s == want {
				return true
			}
		}
		return false
	}
	chiSyms := func(chis []*ir.Chi) []*ir.Sym {
		out := make([]*ir.Sym, len(chis))
		for i, c := range chis {
			out[i] = c.Sym
		}
		return out
	}
	muSyms := func(mus []*ir.Mu) []*ir.Sym {
		out := make([]*ir.Sym, len(mus))
		for i, m := range mus {
			out[i] = m.Sym
		}
		return out
	}

	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch t := st.(type) {
				case *ir.Assign:
					// mirrors the annotator: the two conditions are
					// independent — an indirect load into a
					// memory-resident scalar carries both lists
					if t.RK == ir.RHSLoad && t.Site != 0 {
						checkList(f, b, "mu", muSyms(t.Mus))
						class, ok := ar.SiteClass[t.Site]
						if !ok {
							add(f, b, "unknown-site", "load site %d has no alias class", t.Site)
							continue
						}
						if vv, ok := ar.VV[class]; ok && !hasSym(muSyms(t.Mus), vv) {
							add(f, b, "missing-vv-mu",
								"indirect load of class %d lacks a mu for virtual variable %s", class, vv.Name)
						}
					}
					if t.Dst.Sym.InMemory() {
						checkList(f, b, "chi", chiSyms(t.Chis))
						if vv, ok := ar.VV[ar.ClassOfSym[t.Dst.Sym]]; ok && !hasSym(chiSyms(t.Chis), vv) {
							add(f, b, "missing-vv-chi",
								"direct store to aliased %s lacks a chi for virtual variable %s",
								t.Dst.Sym.Name, vv.Name)
						}
					}
				case *ir.IStore:
					if t.Site == 0 {
						continue
					}
					checkList(f, b, "chi", chiSyms(t.Chis))
					class, ok := ar.SiteClass[t.Site]
					if !ok {
						add(f, b, "unknown-site", "store site %d has no alias class", t.Site)
						continue
					}
					if vv, ok := ar.VV[class]; ok && !hasSym(chiSyms(t.Chis), vv) {
						add(f, b, "missing-vv-chi",
							"indirect store of class %d lacks a chi for virtual variable %s", class, vv.Name)
					}
				case *ir.Call:
					checkList(f, b, "chi", chiSyms(t.Chis))
					checkList(f, b, "mu", muSyms(t.Mus))
				}
			}
		}
	}
	return vs
}

// CheckFlags re-derives the expected speculation flag of every chi/mu
// from the (profile, mode) pair the pipeline ran with — the paper's
// §3.2.1/§3.2.2 policy — and reports every disagreement: a χs the policy
// would not have set (stray speculation of a must-alias), a missing χs
// (an update wrongly made ignorable), or a profiled LOC the list lacks
// entirely.
func CheckFlags(prog *ir.Program, env *Env, pass string) []Violation {
	ar, prof := env.Alias, env.Prof
	var vs []Violation
	add := func(f *ir.Func, b *ir.Block, rule, format string, args ...any) {
		vs = append(vs, Violation{
			Pass: pass, Func: f.Name, Block: b.ID, Instr: -1,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	// mode and pol are per function: a re-tiered function (Env.FnOverrides)
	// must be re-derived under the override the pipeline assigned its
	// flags with, not the program-wide pair.
	expectChi := func(f *ir.Func, b *ir.Block, chis []*ir.Chi, locs profile.LocSet, total uint64, mode core.Mode, pol core.Policy, fp bool) {
		for _, chi := range chis {
			want := core.SymFlag(f, chi.Sym, locs, total, ar, mode, pol, fp)
			if chi.Spec != want {
				add(f, b, "wrong-chi-flag", "chi on %s flagged %v, policy says %v",
					chi.Sym.Name, chi.Spec, want)
			}
		}
	}
	expectMu := func(f *ir.Func, b *ir.Block, mus []*ir.Mu, locs profile.LocSet, total uint64, mode core.Mode, pol core.Policy, fp bool) {
		for _, mu := range mus {
			want := core.SymFlag(f, mu.Sym, locs, total, ar, mode, pol, fp)
			if mu.Spec != want {
				add(f, b, "wrong-mu-flag", "mu on %s flagged %v, policy says %v",
					mu.Sym.Name, mu.Spec, want)
			}
		}
	}
	// complete checks the §3.2.1 escape hatch: every profiled LOC of the
	// site must appear in the list (AssignFlagsTiered adds the missing ones as
	// flagged entries).
	completeChi := func(f *ir.Func, b *ir.Block, chis []*ir.Chi, locs profile.LocSet) {
		if locs == nil {
			return
		}
		have := map[*ir.Sym]bool{}
		for _, chi := range chis {
			have[chi.Sym] = true
		}
		for loc := range locs {
			if sym := ar.LocToSym(f, loc); sym != nil && !have[sym] {
				add(f, b, "missing-profiled-chi", "profiled LOC %s absent from chi list", sym.Name)
			}
		}
	}
	completeMu := func(f *ir.Func, b *ir.Block, mus []*ir.Mu, locs profile.LocSet) {
		if locs == nil {
			return
		}
		have := map[*ir.Sym]bool{}
		for _, mu := range mus {
			have[mu.Sym] = true
		}
		for loc := range locs {
			if sym := ar.LocToSym(f, loc); sym != nil && !have[sym] {
				add(f, b, "missing-profiled-mu", "profiled LOC %s absent from mu list", sym.Name)
			}
		}
	}

	for _, f := range prog.Funcs {
		mode, pol := env.fnModePolicy(f.Name)
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch t := st.(type) {
				case *ir.Assign:
					// mirrors AssignFlagsTiered: the conditions are independent,
					// not exclusive (see CheckAnnotated)
					if t.RK == ir.RHSLoad && t.Site != 0 {
						locs := core.LocsFor(prof, mode, t.Site, false)
						total := core.SiteTotalFor(prof, mode, t.Site)
						fp := t.LoadsFrom != nil && t.LoadsFrom.IsFloat()
						expectMu(f, b, t.Mus, locs, total, mode, pol, fp)
						completeMu(f, b, t.Mus, locs)
					}
					if t.Dst.Sym.InMemory() {
						// a direct store's chi is a weak summary update
						// under speculation, a hard kill otherwise
						for _, chi := range t.Chis {
							if want := mode == core.ModeNone; chi.Spec != want {
								add(f, b, "wrong-chi-flag",
									"direct-store chi on %s flagged %v, policy says %v",
									chi.Sym.Name, chi.Spec, want)
							}
						}
					}
				case *ir.IStore:
					if t.Site == 0 {
						continue
					}
					locs := core.LocsFor(prof, mode, t.Site, true)
					total := core.SiteTotalFor(prof, mode, t.Site)
					fp := t.StoresTo != nil && t.StoresTo.IsFloat()
					expectChi(f, b, t.Chis, locs, total, mode, pol, fp)
					completeChi(f, b, t.Chis, locs)
				case *ir.Call:
					if mode.ProfileGuided() {
						var mod, ref profile.LocSet
						var total uint64
						if prof != nil {
							mod, ref = prof.CallMod[t.Site], prof.CallRef[t.Site]
							total = core.SiteTotalFor(prof, mode, t.Site)
						}
						expectChi(f, b, t.Chis, mod, total, mode, pol, false)
						completeChi(f, b, t.Chis, mod)
						expectMu(f, b, t.Mus, ref, total, mode, pol, false)
					} else {
						for _, chi := range t.Chis {
							if !chi.Spec {
								add(f, b, "wrong-chi-flag",
									"call chi on %s unflagged; call side effects are always highly likely",
									chi.Sym.Name)
							}
						}
						for _, mu := range t.Mus {
							if want := mode == core.ModeNone; mu.Spec != want {
								add(f, b, "wrong-mu-flag", "call mu on %s flagged %v, policy says %v",
									mu.Sym.Name, mu.Spec, want)
							}
						}
					}
				}
			}
		}
	}
	return vs
}

// loadShaped reports whether a statement is a load in the codegen sense —
// an indirect load or a direct read of a memory-resident scalar — and
// returns its address template operand.
func loadShaped(a *ir.Assign) (ir.Operand, bool) {
	switch a.RK {
	case ir.RHSLoad:
		return a.A, true
	case ir.RHSCopy:
		if r, ok := a.A.(*ir.Ref); ok && r.Sym.InMemory() {
			return a.A, true
		}
	}
	return nil, false
}

// checkPairing verifies the advanced-load/check-load protocol on one
// function's statements (valid both in and out of SSA, since the PRE
// temporary is coalesced): a check load must not itself be advanced or
// control-speculative and must target a register some advanced load
// feeds. The pairing is by register only — the ALAT keys on the
// register, and a later PRE round legitimately rewrites one
// occurrence's address computation into a CSE temp the other side does
// not name, so syntactic address identity cannot be required; the
// machine-level dataflow (CheckMachine) proves the register pairing
// holds on every path instead.
func checkPairing(fn *ir.Func, pass string) []Violation {
	var vs []Violation
	add := func(b *ir.Block, rule, format string, args ...any) {
		vs = append(vs, Violation{
			Pass: pass, Func: fn.Name, Block: b.ID, Instr: -1,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	advOf := map[*ir.Sym][]*ir.Assign{}
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok {
				continue
			}
			if _, isLoad := loadShaped(a); isLoad && a.Spec.AdvLoad {
				advOf[a.Dst.Sym] = append(advOf[a.Dst.Sym], a)
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			a, ok := st.(*ir.Assign)
			if !ok || !a.Spec.CheckLoad {
				continue
			}
			if _, isLoad := loadShaped(a); !isLoad {
				continue // a check marker on a non-load never reaches codegen's load path
			}
			if a.Spec.AdvLoad || a.Spec.SpecLoad {
				add(b, "conflicting-flags", "check load %s also flagged %s", a, a.Spec)
			}
			if len(advOf[a.Dst.Sym]) == 0 {
				add(b, "check-without-provider",
					"check load %s targets %s but no advanced load feeds that register",
					a, a.Dst.Sym.Name)
			}
		}
	}
	return vs
}

// CheckSSAFunc verifies one function while it is in SSA form: CFG and
// statement well-formedness, unique definitions, def-dominates-use over
// the dominator tree (including phi arguments against their predecessor),
// and the advanced/check-load pairing.
func CheckSSAFunc(fn *ir.Func, pass string) []Violation {
	var vs []Violation
	structural := func(rule string, err error) {
		if err != nil {
			vs = append(vs, Violation{
				Pass: pass, Func: fn.Name, Block: -1, Instr: -1,
				Rule: rule, Msg: err.Error(),
			})
		}
	}
	structural("invalid-cfg", ir.Verify(fn))
	structural("multiple-defs", ir.VerifySSA(fn))
	structural("def-use", ir.VerifyDefUse(fn))
	return append(vs, checkPairing(fn, pass)...)
}

// CheckPostSSA verifies one function after out-of-SSA conversion: no phis
// or analysis-only annotations may survive, every reference must be
// version-free, and the advanced/check-load pairing must still hold on
// the coalesced registers.
func CheckPostSSA(fn *ir.Func, pass string) []Violation {
	var vs []Violation
	add := func(b *ir.Block, rule, format string, args ...any) {
		vs = append(vs, Violation{
			Pass: pass, Func: fn.Name, Block: b.ID, Instr: -1,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	if err := ir.Verify(fn); err != nil {
		vs = append(vs, Violation{
			Pass: pass, Func: fn.Name, Block: -1, Instr: -1,
			Rule: "invalid-cfg", Msg: err.Error(),
		})
	}
	ver := func(b *ir.Block, op ir.Operand, what string) {
		if r, ok := op.(*ir.Ref); ok && r != nil && r.Ver != 0 {
			add(b, "residual-version", "%s %s still carries SSA version %d", what, r.Sym.Name, r.Ver)
		}
	}
	for _, b := range fn.Blocks {
		if len(b.Phis) > 0 {
			add(b, "residual-phi", "%d phi(s) survived out-of-SSA", len(b.Phis))
		}
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				if len(t.Mus) > 0 || len(t.Chis) > 0 {
					add(b, "residual-annotation", "chi/mu list survived out-of-SSA on %s", t)
				}
				ver(b, t.Dst, "destination")
				ver(b, t.A, "operand")
				if t.B != nil {
					ver(b, t.B, "operand")
				}
			case *ir.IStore:
				if len(t.Chis) > 0 || t.VV != nil {
					add(b, "residual-annotation", "chi/VV survived out-of-SSA on %s", t)
				}
				ver(b, t.Addr, "operand")
				ver(b, t.Val, "operand")
			case *ir.Call:
				if len(t.Mus) > 0 || len(t.Chis) > 0 {
					add(b, "residual-annotation", "chi/mu list survived out-of-SSA on %s", t)
				}
				if t.Dst != nil {
					ver(b, t.Dst, "destination")
				}
				for _, a := range t.Args {
					ver(b, a, "operand")
				}
			case *ir.Print:
				for _, a := range t.Args {
					ver(b, a, "operand")
				}
			}
		}
		if b.Term.Cond != nil {
			ver(b, b.Term.Cond, "branch condition")
		}
		if b.Term.Val != nil {
			ver(b, b.Term.Val, "return value")
		}
	}
	return append(vs, checkPairing(fn, pass)...)
}
