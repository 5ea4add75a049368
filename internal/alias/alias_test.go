package alias

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/source"
)

func compile(t *testing.T, src string) *ir.Program {
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

func TestSeparateClassesStayApart(t *testing.T) {
	prog := compile(t, `
int a = 0;
double x = 0.0;
int main() {
	int *p = &a;
	double *q = &x;
	*p = 1;
	*q = 2.0;
	print(*p, *q);
	return 0;
}`)
	res := Analyze(prog, Options{})
	var classes []int
	for _, c := range res.SiteClass {
		classes = append(classes, c)
	}
	if len(classes) != 4 {
		t.Fatalf("expected 4 indirect sites, got %d", len(classes))
	}
	// a's class and x's class must differ (p and q never mix)
	var a, x *ir.Sym
	for _, g := range prog.Globals {
		switch g.Name {
		case "a":
			a = g
		case "x":
			x = g
		}
	}
	if res.ClassOfSym[a] == res.ClassOfSym[x] {
		t.Error("a and x ended up in the same alias class")
	}
}

func TestPointerCopyMergesClasses(t *testing.T) {
	prog := compile(t, `
int a = 0;
int b = 0;
int main() {
	int *p = &a;
	int *q = &b;
	p = q;
	*p = 1;
	print(a, b);
	return 0;
}`)
	res := Analyze(prog, Options{})
	var a, b *ir.Sym
	for _, g := range prog.Globals {
		switch g.Name {
		case "a":
			a = g
		case "b":
			b = g
		}
	}
	if res.ClassOfSym[a] != res.ClassOfSym[b] {
		t.Error("p = q should merge the classes of a and b (Steensgaard)")
	}
}

func TestHeapSitesGetPseudoSyms(t *testing.T) {
	prog := compile(t, `
int main() {
	int *p = (int*)malloc(10);
	int *q = (int*)malloc(10);
	p[0] = 1;
	q[0] = 2;
	print(p[0] + q[0]);
	return 0;
}`)
	res := Analyze(prog, Options{})
	if len(res.HeapSym) != 2 {
		t.Fatalf("expected 2 heap sites, got %d", len(res.HeapSym))
	}
}

func TestChiMuAnnotation(t *testing.T) {
	prog := compile(t, `
int a = 0;
int b = 0;
int main() {
	int *p = &a;
	if (arg(0)) p = &b;
	*p = 7;
	int x = *p;
	print(x);
	return 0;
}`)
	res := Analyze(prog, Options{})
	res.AnnotateWorkers(prog, 0)
	main := prog.FuncMap["main"]
	var storeChis, loadMus int
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			switch s := st.(type) {
			case *ir.IStore:
				storeChis = len(s.Chis)
			case *ir.Assign:
				if s.RK == ir.RHSLoad {
					loadMus = len(s.Mus)
				}
			}
		}
	}
	// chi list: members a and b plus the virtual variable
	if storeChis != 3 {
		t.Errorf("store chi list has %d entries, want 3 (a, b, vv)", storeChis)
	}
	if loadMus != 3 {
		t.Errorf("load mu list has %d entries, want 3 (a, b, vv)", loadMus)
	}
	if len(res.FuncVirtuals[main]) == 0 {
		t.Error("main should reference at least one virtual variable")
	}
}

func TestTypeBasedFiltering(t *testing.T) {
	// An int store through p cannot modify double storage under
	// type-based disambiguation even if Steensgaard merges the classes
	// via the untyped helper.
	src := `
int a = 0;
double x = 0.0;
int deref(int *r) { return *r; }
int main() {
	int *p = &a;
	*p = 3;
	double *q = &x;
	*q = 1.5;
	print(deref(p));
	return 0;
}`
	prog := compile(t, src)
	res := Analyze(prog, Options{TypeBased: true})
	res.AnnotateWorkers(prog, 0)
	main := prog.FuncMap["main"]
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if s, ok := st.(*ir.IStore); ok && s.StoresTo.Kind == ir.KInt {
				for _, chi := range s.Chis {
					if chi.Sym.Name == "x" {
						t.Error("int store chi list contains double variable x despite type-based AA")
					}
				}
			}
		}
	}
}

func TestCallModRefAnnotation(t *testing.T) {
	prog := compile(t, `
int g = 0;
void bump() { g = g + 1; }
int main() {
	bump();
	print(g);
	return 0;
}`)
	res := Analyze(prog, Options{})
	res.AnnotateWorkers(prog, 0)
	main := prog.FuncMap["main"]
	found := false
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if c, ok := st.(*ir.Call); ok && c.Fn == "bump" {
				for _, chi := range c.Chis {
					if chi.Sym.Name == "g" {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Error("call to bump() lacks chi on g")
	}
}

func TestModRefTransitive(t *testing.T) {
	prog := compile(t, `
int g = 0;
void inner() { g = 1; }
void outer() { inner(); }
int main() {
	outer();
	print(g);
	return 0;
}`)
	res := Analyze(prog, Options{})
	outer := prog.FuncMap["outer"]
	var g *ir.Sym
	for _, s := range prog.Globals {
		if s.Name == "g" {
			g = s
		}
	}
	if !res.ModSyms[outer][g] {
		t.Error("outer's transitive mod set should contain g")
	}
}

func TestRefineDevirtualizesDirectAddresses(t *testing.T) {
	prog := compile(t, `
int g = 1;
int main() {
	int x = 5;
	int *p = &x;       // single definition: *p is exactly x
	*p = 7;
	int y = *p;
	*(&g) = y;         // trivially direct
	print(x, y, g);
	return 0;
}`)
	n := RefineWorkers(prog, 0)
	if n < 3 {
		t.Fatalf("RefineWorkers rewrote %d references, want >= 3\n%s", n, prog)
	}
	main := prog.FuncMap["main"]
	for _, b := range main.Blocks {
		for _, st := range b.Stmts {
			if _, ok := st.(*ir.IStore); ok {
				t.Errorf("indirect store survived refinement: %s", st)
			}
			if a, ok := st.(*ir.Assign); ok && a.RK == ir.RHSLoad {
				t.Errorf("indirect load survived refinement: %s", st)
			}
		}
	}
}

func TestRefineLeavesAmbiguousPointersAlone(t *testing.T) {
	prog := compile(t, `
int a = 0;
int b = 0;
int main() {
	int *p = &a;
	if (arg(0)) p = &b;   // two definitions: cannot devirtualize
	*p = 9;
	print(*p);
	return 0;
}`)
	if n := RefineWorkers(prog, 0); n != 0 {
		t.Fatalf("RefineWorkers rewrote %d references on an ambiguous pointer", n)
	}
}
