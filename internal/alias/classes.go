package alias

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/profile"
)

// Options controls the analysis.
type Options struct {
	// TypeBased enables type-based disambiguation inside alias classes
	// (the paper compiles its baseline "O3 with type-based alias
	// analysis"): a double-typed reference gets no chi/mu on int-typed
	// members and vice versa.
	TypeBased bool
}

// Result is the outcome of the whole-program alias analysis.
type Result struct {
	Opts Options

	// NumClasses counts alias equivalence classes.
	NumClasses int
	// SiteClass maps an indirect reference site id to its class.
	SiteClass map[int]int
	// ClassMembers lists the memory-resident program variables whose
	// storage is in each class.
	ClassMembers map[int][]*ir.Sym
	// ClassHeap lists the heap pseudo-symbols in each class, one per
	// (allocation site, caller call-site) pair — 1-level call-path
	// naming so that objects allocated through a shared wrapper stay
	// distinguishable, the granularity of the paper's [4].
	ClassHeap map[int][]*ir.Sym
	// HeapSym maps (allocation site, caller context) to its pseudo-symbol.
	HeapSym map[HeapKey]*ir.Sym
	// HeapSiteOf inverts HeapSym.
	HeapSiteOf map[*ir.Sym]HeapKey
	// VV maps a class to its HSSA virtual variable; only classes with at
	// least one indirect reference site have one.
	VV map[int]*ir.Sym
	// ClassOfSym maps each memory-resident symbol to its class.
	ClassOfSym map[*ir.Sym]int

	// Mod and Ref give, per function, the transitively modified /
	// referenced memory: named symbols and whole classes (from indirect
	// accesses).
	ModSyms, RefSyms       map[*ir.Func]map[*ir.Sym]bool
	ModClasses, RefClasses map[*ir.Func]map[int]bool

	// FuncVirtuals lists, per function, the virtual symbols (class
	// virtual variables and heap pseudo-symbols) referenced by its
	// chi/mu lists. Populated by AnnotateWorkers.
	FuncVirtuals map[*ir.Func][]*ir.Sym

	funcSymSet map[*ir.Func]map[*ir.Sym]bool
	// varSym resolves a variable's profile Loc to its memory-resident
	// symbol (LocToSym).
	varSym map[profile.Loc]*ir.Sym
}

// Analyze runs Steensgaard's analysis and derives alias classes, virtual
// variables and mod/ref sets for the whole program.
func Analyze(prog *ir.Program, opts Options) *Result {
	s := newSolver(prog)
	s.solve()

	res := &Result{
		Opts:         opts,
		SiteClass:    map[int]int{},
		ClassMembers: map[int][]*ir.Sym{},
		ClassHeap:    map[int][]*ir.Sym{},
		HeapSym:      map[HeapKey]*ir.Sym{},
		HeapSiteOf:   map[*ir.Sym]HeapKey{},
		VV:           map[int]*ir.Sym{},
		ClassOfSym:   map[*ir.Sym]int{},
		ModSyms:      map[*ir.Func]map[*ir.Sym]bool{},
		RefSyms:      map[*ir.Func]map[*ir.Sym]bool{},
		ModClasses:   map[*ir.Func]map[int]bool{},
		RefClasses:   map[*ir.Func]map[int]bool{},
		varSym:       map[profile.Loc]*ir.Sym{},
	}

	classOfRoot := map[*node]int{}
	classOf := func(n *node) int {
		r := n.find()
		if id, ok := classOfRoot[r]; ok {
			return id
		}
		id := res.NumClasses
		res.NumClasses++
		classOfRoot[r] = id
		return id
	}

	// object storage: memory-resident symbols
	member := func(f *ir.Func, sym *ir.Sym) {
		id := classOf(s.obj(sym))
		res.ClassOfSym[sym] = id
		res.ClassMembers[id] = append(res.ClassMembers[id], sym)
		if loc := profile.VarLoc(f, sym); res.varSym[loc] == nil {
			res.varSym[loc] = sym
		}
	}
	for _, g := range prog.Globals {
		member(nil, g)
	}
	for _, f := range prog.Funcs {
		for _, sym := range f.Syms {
			if sym.Kind != ir.SymVirtual && sym.Kind != ir.SymGlobal && sym.InMemory() {
				member(f, sym)
			}
		}
	}
	// heap allocation sites: one pseudo-symbol per (site, caller call
	// site) pair. The contexts of an allocation inside function F are
	// exactly F's call sites; allocations in main (or in a function with
	// no callers) use context 0.
	callSitesOf := map[string][]int{}
	allocFunc := map[int]*ir.Func{}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch t := st.(type) {
				case *ir.Call:
					if _, isUser := prog.FuncMap[t.Fn]; isUser {
						callSitesOf[t.Fn] = append(callSitesOf[t.Fn], t.Site)
					}
				case *ir.Assign:
					if t.RK == ir.RHSAlloc {
						allocFunc[t.AllocSite] = f
					}
				}
			}
		}
	}
	for site, n := range s.heapOf {
		id := classOf(n)
		ctxs := []int{0}
		if f := allocFunc[site]; f != nil && f.Name != "main" {
			if cs := callSitesOf[f.Name]; len(cs) > 0 {
				ctxs = cs
			}
		}
		for _, ctx := range ctxs {
			key := HeapKey{Site: site, Ctx: ctx}
			name := fmt.Sprintf("h$%d", site)
			if ctx != 0 {
				name = fmt.Sprintf("h$%d@%d", site, ctx)
			}
			hs := &ir.Sym{Name: name, Kind: ir.SymVirtual, Type: ir.VoidType, Class: id}
			res.HeapSym[key] = hs
			res.HeapSiteOf[hs] = key
			res.ClassHeap[id] = append(res.ClassHeap[id], hs)
		}
	}
	// deterministic ordering of heap members (map iteration above)
	for id := range res.ClassHeap {
		sort.Slice(res.ClassHeap[id], func(i, j int) bool {
			a, b := res.HeapSiteOf[res.ClassHeap[id][i]], res.HeapSiteOf[res.ClassHeap[id][j]]
			if a.Site != b.Site {
				return a.Site < b.Site
			}
			return a.Ctx < b.Ctx
		})
	}

	// classify every indirect reference site; create virtual variables
	ensureVV := func(id int) *ir.Sym {
		if vv, ok := res.VV[id]; ok {
			return vv
		}
		vv := &ir.Sym{Name: fmt.Sprintf("v$%d", id), Kind: ir.SymVirtual, Type: ir.VoidType, Class: id}
		res.VV[id] = vv
		return vv
	}
	addrClass := func(op ir.Operand) int {
		if vn := s.valueNodeOf(op); vn != nil {
			return classOf(s.pointeeOf(vn))
		}
		// constant address: fresh singleton class
		return classOf(s.newNode())
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch t := st.(type) {
				case *ir.Assign:
					if t.RK == ir.RHSLoad && t.Site != 0 {
						id := addrClass(t.A)
						res.SiteClass[t.Site] = id
						ensureVV(id)
					}
				case *ir.IStore:
					if t.Site != 0 {
						id := addrClass(t.Addr)
						res.SiteClass[t.Site] = id
						ensureVV(id)
					}
				}
			}
		}
	}

	res.computeModRef(prog)
	return res
}

// computeModRef propagates direct mod/ref facts over the call graph to a
// fixpoint.
func (r *Result) computeModRef(prog *ir.Program) {
	for _, f := range prog.Funcs {
		r.ModSyms[f] = map[*ir.Sym]bool{}
		r.RefSyms[f] = map[*ir.Sym]bool{}
		r.ModClasses[f] = map[int]bool{}
		r.RefClasses[f] = map[int]bool{}
	}
	// direct effects
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch t := st.(type) {
				case *ir.Assign:
					if t.Dst.Sym.InMemory() {
						r.ModSyms[f][t.Dst.Sym] = true
					}
					if t.RK == ir.RHSCopy {
						if ref, ok := t.A.(*ir.Ref); ok && ref.Sym.InMemory() {
							r.RefSyms[f][ref.Sym] = true
						}
					}
					if t.RK == ir.RHSLoad && t.Site != 0 {
						r.RefClasses[f][r.SiteClass[t.Site]] = true
					}
				case *ir.IStore:
					if t.Site != 0 {
						r.ModClasses[f][r.SiteClass[t.Site]] = true
					}
				}
			}
		}
	}
	// transitive closure over calls
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, st := range b.Stmts {
					call, ok := st.(*ir.Call)
					if !ok {
						continue
					}
					callee, ok := prog.FuncMap[call.Fn]
					if !ok {
						continue
					}
					changed = mergeSyms(r.ModSyms[f], r.ModSyms[callee]) || changed
					changed = mergeSyms(r.RefSyms[f], r.RefSyms[callee]) || changed
					changed = mergeClasses(r.ModClasses[f], r.ModClasses[callee]) || changed
					changed = mergeClasses(r.RefClasses[f], r.RefClasses[callee]) || changed
				}
			}
		}
	}
}

func mergeSyms(dst, src map[*ir.Sym]bool) bool {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return changed
}

func mergeClasses(dst, src map[int]bool) bool {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return changed
}

// typeCompatible reports whether a reference of type rt could access
// storage of member m under type-based disambiguation. Unknown types are
// conservatively compatible.
func (r *Result) typeCompatible(rt *ir.Type, m *ir.Sym) bool {
	if !r.Opts.TypeBased || rt == nil || m.Type == nil {
		return true
	}
	return kindsOverlap(rt, m.Type)
}

// kindsOverlap reports whether storage of type mt can hold a value
// accessed with reference type rt: float storage only matches float
// references, int/pointer storage matches int/pointer references.
func kindsOverlap(rt, mt *ir.Type) bool {
	refFloat := rt.Kind == ir.KFloat
	has := typeHasKind(mt, refFloat)
	return has
}

func typeHasKind(t *ir.Type, wantFloat bool) bool {
	switch t.Kind {
	case ir.KFloat:
		return wantFloat
	case ir.KInt, ir.KPtr:
		return !wantFloat
	case ir.KArray:
		return typeHasKind(t.Elem, wantFloat)
	case ir.KStruct:
		for _, f := range t.Fields {
			if typeHasKind(f.Type, wantFloat) {
				return true
			}
		}
	case ir.KVoid:
		return true
	}
	return true
}

// LocToSym resolves a profiled abstract location to the chi/mu-list symbol
// it corresponds to in function f (nil if it is invisible there, e.g. a
// local of another function). A variable is matched by name: of several
// same-named memory-resident locals, the first in f.Syms.
func (r *Result) LocToSym(f *ir.Func, loc profile.Loc) *ir.Sym {
	switch loc.Kind {
	case profile.LocGlobal:
		return r.varSym[loc]
	case profile.LocLocal:
		if loc.Fn == f.Name {
			return r.varSym[loc]
		}
		return nil
	case profile.LocHeap:
		if hs, ok := r.HeapSym[HeapKey{Site: loc.Site, Ctx: loc.Ctx}]; ok {
			return hs
		}
		// context not statically enumerated (deeper call path): fall
		// back to the context-free symbol
		return r.HeapSym[HeapKey{Site: loc.Site}]
	}
	return nil
}

// HeapKey names a heap pseudo-symbol: the static allocation site plus the
// immediate caller's call site (0 when allocated directly in main or when
// context-insensitive).
type HeapKey struct {
	Site int
	Ctx  int
}
