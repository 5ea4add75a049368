package alias

import (
	"repro/internal/ir"
	"repro/internal/par"
)

// RefineWorkers performs the flow-sensitive refinement step of the paper's
// Fig. 4 ("flow sensitive pointer alias analysis ... refine the μs list
// and the χs list"): an indirect reference whose address provably resolves
// — through single-definition copy chains — to the address of one scalar
// variable is devirtualized into a direct reference. A store through such
// an address becomes a strong update (killing definition) instead of a χ
// fan-out over the whole alias class, and a load becomes an ordinary
// scalar read, both of which sharpen every later phase.
//
// RefineWorkers runs on the pre-SSA flattened IR, before chi/mu
// annotation. It returns the number of references rewritten. It refines
// with at most workers functions in flight (0 = all cores, 1 = serial). Each function's rewrite reads and writes
// only that function's statements, so the result is identical at every
// worker count.
func RefineWorkers(prog *ir.Program, workers int) int {
	counts := make([]int, len(prog.Funcs))
	par.Each(workers, len(prog.Funcs), func(i int) error {
		counts[i] = refineFunc(prog.Funcs[i])
		return nil
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

func refineFunc(f *ir.Func) int {
	// single-definition map for register symbols (the pre-SSA IR from
	// lowering defines most temporaries exactly once)
	defCount := map[*ir.Sym]int{}
	defOf := map[*ir.Sym]*ir.Assign{}
	for _, b := range f.Blocks {
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				if !t.Dst.Sym.InMemory() {
					defCount[t.Dst.Sym]++
					defOf[t.Dst.Sym] = t
				}
			case *ir.Call:
				if t.Dst != nil {
					defCount[t.Dst.Sym] += 2 // opaque
				}
			}
		}
	}

	// resolveAddr chases copies to a unique &sym, if any.
	var resolveAddr func(op ir.Operand, depth int) *ir.Sym
	resolveAddr = func(op ir.Operand, depth int) *ir.Sym {
		if depth > 16 {
			return nil
		}
		switch o := op.(type) {
		case *ir.AddrOf:
			if o.Sym.Type.IsScalar() {
				return o.Sym
			}
			return nil
		case *ir.Ref:
			if o.Sym.InMemory() || defCount[o.Sym] != 1 {
				return nil
			}
			d := defOf[o.Sym]
			if d == nil || d.RK != ir.RHSCopy {
				return nil
			}
			return resolveAddr(d.A, depth+1)
		}
		return nil
	}

	n := 0
	for _, b := range f.Blocks {
		for i, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.IStore:
				sym := resolveAddr(t.Addr, 0)
				if sym == nil {
					continue
				}
				b.Stmts[i] = &ir.Assign{
					Dst: &ir.Ref{Sym: sym}, RK: ir.RHSCopy, A: t.Val,
				}
				n++
			case *ir.Assign:
				if t.RK != ir.RHSLoad {
					continue
				}
				sym := resolveAddr(t.A, 0)
				if sym == nil {
					continue
				}
				t.RK = ir.RHSCopy
				t.A = &ir.Ref{Sym: sym}
				t.LoadsFrom = sym.Type
				t.VV = nil
				t.Mus = nil
				n++
			}
		}
	}
	return n
}
