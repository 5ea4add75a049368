package alias

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/par"
)

// AnnotateWorkers installs the initial chi and mu lists on every statement of the
// program, following §3.2 of the paper:
//
//   - an indirect store gets a chi for every visible, type-compatible
//     variable in its alias class, for every heap allocation site in the
//     class, and for the class's virtual variable;
//   - an indirect load gets the corresponding mu list;
//   - a direct store to an aliased variable gets a chi on the class's
//     virtual variable (its named target is a strong def, not a chi);
//   - a call gets chi/mu lists representing the callee's transitive
//     mod/ref sets.
//
// All chis and mus start unflagged (speculative weak updates); the core
// package attaches the speculation flags from profiles or heuristics.
// AnnotateWorkers records which virtual symbols each function now
// references in FuncVirtuals, for the SSA renamer.
//
// It annotates with at most workers functions in flight
// (0 = all cores, 1 = serial). Annotation writes only the target
// function's statements and reads the (by now frozen) analysis maps, so
// the chi/mu lists are identical at every worker count. The per-function
// symbol-set cache that visibleIn builds lazily is precomputed up front
// so the parallel phase never mutates the Result.
func (r *Result) AnnotateWorkers(prog *ir.Program, workers int) {
	if r.FuncVirtuals == nil {
		r.FuncVirtuals = map[*ir.Func][]*ir.Sym{}
	}
	if r.funcSymSet == nil {
		r.funcSymSet = map[*ir.Func]map[*ir.Sym]bool{}
	}
	for _, f := range prog.Funcs {
		if r.funcSymSet[f] == nil {
			set := make(map[*ir.Sym]bool, len(f.Syms))
			for _, fs := range f.Syms {
				set[fs] = true
			}
			r.funcSymSet[f] = set
		}
	}
	virtsOf := make([][]*ir.Sym, len(prog.Funcs))
	par.Each(workers, len(prog.Funcs), func(i int) error {
		virtsOf[i] = r.annotateFunc(prog, prog.Funcs[i])
		return nil
	})
	for i, f := range prog.Funcs {
		r.FuncVirtuals[f] = virtsOf[i]
	}
}

// annotateFunc installs the chi/mu lists on one function and returns the
// virtual symbols it now references.
func (r *Result) annotateFunc(prog *ir.Program, f *ir.Func) []*ir.Sym {
	used := map[*ir.Sym]bool{}
	noteSyms := func(syms []*ir.Sym) {
		for _, s := range syms {
			if s.Kind == ir.SymVirtual {
				used[s] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				// the conditions are independent, not exclusive: an
				// indirect load whose destination is itself a
				// memory-resident scalar reads through a mu list AND
				// direct-stores through a chi
				if t.RK == ir.RHSLoad && t.Site != 0 {
					syms := r.aliasSyms(f, r.SiteClass[t.Site], t.LoadsFrom)
					t.Mus = makeMus(syms)
					noteSyms(syms)
				}
				if t.Dst.Sym.InMemory() {
					// direct store: chi on the virtual variable of the
					// target's class (the contents summary changes)
					if vv, ok := r.VV[r.ClassOfSym[t.Dst.Sym]]; ok {
						t.Chis = []*ir.Chi{{Sym: vv}}
						noteSyms([]*ir.Sym{vv})
					}
				}
			case *ir.IStore:
				if t.Site != 0 {
					syms := r.aliasSyms(f, r.SiteClass[t.Site], t.StoresTo)
					t.Chis = makeChis(syms)
					noteSyms(syms)
				}
			case *ir.Call:
				callee, ok := prog.FuncMap[t.Fn]
				if !ok {
					continue // builtins have no memory side effects
				}
				mods := r.sideEffectSyms(f, r.ModSyms[callee], r.ModClasses[callee])
				refs := r.sideEffectSyms(f, r.RefSyms[callee], r.RefClasses[callee])
				t.Chis = makeChis(mods)
				t.Mus = makeMus(refs)
				noteSyms(mods)
				noteSyms(refs)
			}
		}
	}
	var virts []*ir.Sym
	for s := range used {
		virts = append(virts, s)
	}
	sort.Slice(virts, func(i, j int) bool { return virts[i].Name < virts[j].Name })
	return virts
}

// aliasSyms returns the ordered chi/mu symbol list for an indirect
// reference in f touching the given class with the given reference type.
func (r *Result) aliasSyms(f *ir.Func, class int, refType *ir.Type) []*ir.Sym {
	var syms []*ir.Sym
	for _, m := range r.ClassMembers[class] {
		if !r.visibleIn(f, m) {
			continue
		}
		if !r.typeCompatible(refType, m) {
			continue
		}
		syms = append(syms, m)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	syms = append(syms, r.ClassHeap[class]...)
	if vv, ok := r.VV[class]; ok {
		syms = append(syms, vv)
	}
	return syms
}

// sideEffectSyms builds the chi/mu symbol list for a call from the
// callee's mod (or ref) sets, projected into the caller's scope.
func (r *Result) sideEffectSyms(f *ir.Func, symSet map[*ir.Sym]bool, classSet map[int]bool) []*ir.Sym {
	seen := map[*ir.Sym]bool{}
	classes := map[int]bool{}
	var named []*ir.Sym
	for s := range symSet {
		if r.visibleIn(f, s) && !seen[s] {
			seen[s] = true
			named = append(named, s)
		}
		// the contents summary of the symbol's class changes too
		classes[r.ClassOfSym[s]] = true
	}
	for c := range classSet {
		classes[c] = true
		for _, m := range r.ClassMembers[c] {
			if r.visibleIn(f, m) && !seen[m] {
				seen[m] = true
				named = append(named, m)
			}
		}
	}
	sort.Slice(named, func(i, j int) bool { return named[i].Name < named[j].Name })
	var virts []*ir.Sym
	for c := range classes {
		virts = append(virts, r.ClassHeap[c]...)
		if vv, ok := r.VV[c]; ok {
			virts = append(virts, vv)
		}
	}
	sort.Slice(virts, func(i, j int) bool { return virts[i].Name < virts[j].Name })
	return append(named, virts...)
}

// visibleIn reports whether symbol s can be named in function f.
func (r *Result) visibleIn(f *ir.Func, s *ir.Sym) bool {
	if s.Kind == ir.SymGlobal || s.Kind == ir.SymVirtual {
		return true
	}
	if r.funcSymSet == nil {
		r.funcSymSet = map[*ir.Func]map[*ir.Sym]bool{}
	}
	set := r.funcSymSet[f]
	if set == nil {
		set = make(map[*ir.Sym]bool, len(f.Syms))
		for _, fs := range f.Syms {
			set[fs] = true
		}
		r.funcSymSet[f] = set
	}
	return set[s]
}

func makeChis(syms []*ir.Sym) []*ir.Chi {
	chis := make([]*ir.Chi, len(syms))
	for i, s := range syms {
		chis[i] = &ir.Chi{Sym: s}
	}
	return chis
}

func makeMus(syms []*ir.Sym) []*ir.Mu {
	mus := make([]*ir.Mu, len(syms))
	for i, s := range syms {
		mus[i] = &ir.Mu{Sym: s}
	}
	return mus
}
