package specheck_test

// Regression test for the Assign-case blind spot shared by the annotator,
// the flag assigner and this checker: an indirect load whose destination
// is itself a memory-resident scalar is simultaneously a load (mu list)
// and a direct store (chi on the destination class's virtual variable).
// All three used exclusive case analysis and silently took the load arm,
// so the store side carried no chi and nothing noticed — the checker had
// the same blind spot as the code it checks. The frontend never emits
// this shape (lowering loads into a fresh temp), so the test fuses the
// temp away in lowered IR, the way a copy-propagating pass could.

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/specheck"
)

func fusedProgram(t *testing.T) (*ir.Program, *alias.Result, *ir.Assign) {
	t.Helper()
	const src = `
int g = 0;
int h = 0;
int main() {
	int *p = &g;
	if (arg(0)) p = &h;
	int x = *p;
	g = x;
	print(g);
	return 0;
}`
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	main := prog.FuncMap["main"]
	var gSym *ir.Sym
	for _, g := range prog.Globals {
		if g.Name == "g" {
			gSym = g
		}
	}
	var load *ir.Assign
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.RK == ir.RHSLoad {
				load = as
			}
		}
	}
	if load == nil {
		t.Fatal("no indirect load in lowered IR")
	}
	load.Dst = &ir.Ref{Sym: gSym}
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	core.AssignFlagsTiered(prog, ar, nil, core.ModeNone, core.DefaultPolicy(), nil)
	return prog, ar, load
}

func TestCheckerAcceptsFusedLoadStore(t *testing.T) {
	prog, ar, load := fusedProgram(t)
	if len(load.Mus) == 0 || len(load.Chis) == 0 {
		t.Fatalf("fused load needs both lists: %d mus, %d chis", len(load.Mus), len(load.Chis))
	}
	env := &specheck.Env{Alias: ar, Mode: core.ModeNone}
	if vs := specheck.CheckAnnotated(prog, env, "test"); len(vs) > 0 {
		t.Errorf("CheckAnnotated rejected a correctly annotated fused load: %v", vs)
	}
	if vs := specheck.CheckFlags(prog, env, "test"); len(vs) > 0 {
		t.Errorf("CheckFlags rejected correctly flagged fused load: %v", vs)
	}
}

func TestCheckerCatchesFusedLoadStoreMutations(t *testing.T) {
	// mutation 1: the historical bug — the store-side chi is missing
	prog, ar, load := fusedProgram(t)
	env := &specheck.Env{Alias: ar, Mode: core.ModeNone}
	saved := load.Chis
	load.Chis = nil
	found := false
	for _, v := range specheck.CheckAnnotated(prog, env, "test") {
		if v.Rule == "missing-vv-chi" {
			found = true
		}
	}
	if !found {
		t.Error("CheckAnnotated missed the dropped store-side chi (the original blind spot)")
	}
	load.Chis = saved

	// mutation 2: the chi survives but stays weak under ModeNone,
	// licensing speculation past a real store
	load.Chis[0].Spec = false
	found = false
	for _, v := range specheck.CheckFlags(prog, env, "test") {
		if v.Rule == "wrong-chi-flag" {
			found = true
		}
	}
	if !found {
		t.Error("CheckFlags missed the unflagged store-side chi")
	}
}
