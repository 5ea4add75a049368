package core

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/source"
)

// The default Itanium-flavored model: int loads save 2−1=1 cycle and a
// miss costs 2+4=6, so integer sites speculate below p=1/7; fp loads
// save 9−1=8 against 9+4=13, so fp sites tolerate odds up to 8/21.
func TestDefaultPolicyTerms(t *testing.T) {
	pol := DefaultPolicy()
	if pol.SavedInt != 1 || pol.RecoverInt != 6 {
		t.Errorf("int terms = %v/%v, want 1/6", pol.SavedInt, pol.RecoverInt)
	}
	if pol.SavedFP != 8 || pol.RecoverFP != 13 {
		t.Errorf("fp terms = %v/%v, want 8/13", pol.SavedFP, pol.RecoverFP)
	}
	if pol.Threshold != 1 {
		t.Errorf("threshold = %v, want 1", pol.Threshold)
	}
}

func TestPolicySpeculateBreakEven(t *testing.T) {
	pol := DefaultPolicy()
	cases := []struct {
		p    float64
		fp   bool
		want bool
	}{
		{0, false, true},     // nothing ever aliased: always worth it
		{0.1, false, true},   // below 1/7
		{0.15, false, false}, // just past the 1/7 break-even
		{0.5, false, false},  // coin flip never pays at 1-vs-6
		{1, false, false},    // certain alias: never speculate
		{0.3, true, true},    // fp saves 8, below 8/21 ≈ 0.38
		{0.5, true, false},   // above the fp break-even
		{0, true, true},
		{1, true, false},
	}
	for _, c := range cases {
		if got := pol.Speculate(c.p, c.fp); got != c.want {
			t.Errorf("Speculate(p=%v, fp=%v) = %v, want %v", c.p, c.fp, got, c.want)
		}
	}
}

func TestPolicyThresholdScalesRecovery(t *testing.T) {
	// raising the threshold shrinks the speculated set monotonically
	ps := []float64{0, 0.01, 0.05, 0.1, 0.13, 0.2, 0.5, 1}
	prev := -1
	for _, th := range []float64{0.25, 0.5, 1, 2, 4, 16} {
		pol := PolicyFor(machine.Config{}, th)
		n := 0
		for _, p := range ps {
			if pol.Speculate(p, false) {
				n++
			}
		}
		if prev >= 0 && n > prev {
			t.Errorf("threshold %v speculates %d sites, more than the lower threshold's %d", th, n, prev)
		}
		prev = n
		// p=0 sites always speculate: savings are free
		if !pol.Speculate(0, false) {
			t.Errorf("threshold %v refuses a never-aliasing site", th)
		}
	}
	// threshold <= 0 normalizes to the neutral 1
	if PolicyFor(machine.Config{}, -3) != PolicyFor(machine.Config{}, 1) {
		t.Error("non-positive threshold not defaulted to 1")
	}
}

func TestAliasProb(t *testing.T) {
	cases := []struct {
		count, total uint64
		want         float64
	}{
		{0, 0, 0},   // v1 profile, never observed
		{5, 0, 1},   // v1 profile, observed: set semantics
		{0, 100, 0}, // counted, never observed
		{25, 100, 0.25},
		{100, 100, 1},
		{250, 100, 1}, // call sites can touch a LOC many times per call
	}
	for _, c := range cases {
		if got := AliasProb(c.count, c.total); got != c.want {
			t.Errorf("AliasProb(%d, %d) = %v, want %v", c.count, c.total, got, c.want)
		}
	}
}

// TestCostModeFlagsByProbability forges counted profiles onto twoPtrSrc's
// indirect store and checks the chi flags follow the expected-cost rule:
// rare aliases stay weak (speculation allowed), frequent ones flag.
func TestCostModeFlagsByProbability(t *testing.T) {
	cases := []struct {
		name      string
		count     uint64 // times *q hit a, out of 100 executions
		threshold float64
		wantFlag  bool
	}{
		{"rare-alias-speculates", 5, 0, false},
		{"frequent-alias-blocks", 50, 0, true},
		{"never-alias-speculates", 0, 0, false},
		{"certain-alias-blocks", 100, 0, true},
		{"high-threshold-blocks-rare", 5, 16, true},
		{"high-threshold-keeps-clean", 0, 16, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, ar, _ := buildRaw(t, twoPtrSrc, ModeNone, nil)
			main := prog.FuncMap["main"]
			var aSym *ir.Sym
			for _, g := range prog.Globals {
				if g.Name == "a" {
					aSym = g
				}
			}
			prof := profile.New()
			for _, blk := range main.Blocks {
				for _, st := range blk.Stmts {
					if is, ok := st.(*ir.IStore); ok {
						if c.count > 0 {
							prof.StoreSet(is.Site).AddN(profile.VarLoc(nil, aSym), c.count)
						}
						prof.SiteTotal[is.Site] = 100
					}
				}
			}
			AssignFlagsTiered(prog, ar, prof, ModeCost, PolicyFor(machine.Config{}, c.threshold), nil)
			checked := false
			for _, blk := range main.Blocks {
				for _, st := range blk.Stmts {
					if is, ok := st.(*ir.IStore); ok {
						for _, chi := range is.Chis {
							if chi.Sym == aSym {
								checked = true
								if chi.Spec != c.wantFlag {
									t.Errorf("chi(a) at p=%v/100 threshold=%v: Spec=%v, want %v",
										c.count, c.threshold, chi.Spec, c.wantFlag)
								}
							}
						}
					}
				}
			}
			if !checked {
				t.Fatal("no chi on a found at the indirect store")
			}
		})
	}
}

// TestCostModeDegradesToSetSemantics: a profile without execution totals
// (version 1 on disk) must make ModeCost assign exactly the flags
// ModeProfile would — observed means certain, unobserved means never.
func TestCostModeDegradesToSetSemantics(t *testing.T) {
	flags := func(mode Mode) string {
		prog, ar, _ := buildRaw(t, twoPtrSrc, ModeNone, nil)
		main := prog.FuncMap["main"]
		var aSym *ir.Sym
		for _, g := range prog.Globals {
			if g.Name == "a" {
				aSym = g
			}
		}
		prof := profile.New() // observed a at the store, no totals recorded
		for _, blk := range main.Blocks {
			for _, st := range blk.Stmts {
				if is, ok := st.(*ir.IStore); ok {
					prof.StoreSet(is.Site).Add(profile.VarLoc(nil, aSym))
				}
			}
		}
		AssignFlagsTiered(prog, ar, prof, mode, DefaultPolicy(), nil)
		var out string
		for _, blk := range main.Blocks {
			for _, st := range blk.Stmts {
				if is, ok := st.(*ir.IStore); ok {
					for _, chi := range is.Chis {
						out += fmt.Sprintf("%s=%v;", chi.Sym.Name, chi.Spec)
					}
				}
			}
		}
		return out
	}
	if p, c := flags(ModeProfile), flags(ModeCost); p != c {
		t.Errorf("ModeCost without totals diverged from ModeProfile:\nprofile: %s\ncost:    %s", p, c)
	}
}

// TestAssignLoadIntoMemoryDstFlags is the regression test for the flag
// assigner's Assign case: an indirect load whose destination is itself a
// memory-resident scalar is both a load (mu list) and a direct store
// (chi on the class's virtual variable). The old exclusive switch took
// the load arm and left the store-side chi unflagged — under ModeNone it
// stayed weak, silently licensing speculation past a real store. The
// frontend never emits this shape (lowering always loads into a fresh
// temp), so the test fuses the temp away in the lowered IR before
// annotation, the way a copy-propagating pass legitimately could.
func TestAssignLoadIntoMemoryDstFlags(t *testing.T) {
	src := `
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
	prog := lowerOnly(t, src)
	main := prog.FuncMap["main"]
	var gSym *ir.Sym
	for _, g := range prog.Globals {
		if g.Name == "g" {
			gSym = g
		}
	}
	// fuse `tN = *p; g = tN` into `g = *p`
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

	ar := analyzeAnnotate(prog)
	if len(load.Mus) == 0 {
		t.Fatal("fused load lost its mu list")
	}
	if len(load.Chis) == 0 {
		t.Fatal("fused load's store side got no chi: the Assign arms must be independent, not exclusive")
	}

	AssignFlagsTiered(prog, ar, nil, ModeNone, DefaultPolicy(), nil)
	for _, chi := range load.Chis {
		if !chi.Spec {
			t.Errorf("ModeNone left the store-side chi on %s weak", chi.Sym.Name)
		}
	}
	for _, mu := range load.Mus {
		if !mu.Spec {
			t.Errorf("ModeNone left mu on %s weak", mu.Sym.Name)
		}
	}
	AssignFlagsTiered(prog, ar, profile.New(), ModeProfile, DefaultPolicy(), nil)
	for _, chi := range load.Chis {
		if chi.Spec {
			t.Errorf("ModeProfile must keep the direct-store summary chi on %s weak", chi.Sym.Name)
		}
	}
}

// lowerOnly parses and lowers src without alias annotation, so tests can
// mutate the pristine IR first.
func lowerOnly(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func analyzeAnnotate(prog *ir.Program) *alias.Result {
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	return ar
}
