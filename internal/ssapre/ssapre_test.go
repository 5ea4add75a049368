package ssapre

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
)

// pipeline compiles src and optimizes it with the given configuration,
// returning the optimized program and stats. The profiling run (when
// needed) uses profArgs.
func pipeline(t *testing.T, src string, mode core.Mode, controlSpec bool, profArgs []int64) (*ir.Program, map[string]*Stats) {
	t.Helper()
	file, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	prof := profile.New()
	if _, err := interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: profArgs}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	prof.ApplyEdges(prog)
	core.AssignFlagsTiered(prog, ar, prof, mode, core.DefaultPolicy(), nil)
	stats, err := Run(prog, Options{DataSpec: mode, ControlSpec: controlSpec, Alias: ar, Verify: true})
	if err != nil {
		t.Fatalf("ssapre: %v", err)
	}
	for _, fn := range prog.Funcs {
		if err := ir.Verify(fn); err != nil {
			t.Fatalf("optimized IR invalid: %v\n%s", err, fn)
		}
	}
	return prog, stats
}

// checkEquiv verifies that the optimized program produces the same output
// as the unoptimized one for each argument vector.
func checkEquiv(t *testing.T, src string, mode core.Mode, controlSpec bool, profArgs []int64, runArgs [][]int64) {
	t.Helper()
	file, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ref, err := source.Lower(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	opt, _ := pipeline(t, src, mode, controlSpec, profArgs)
	for _, args := range runArgs {
		want, err := interp.Run(ref, interp.Options{Args: args})
		if err != nil {
			t.Fatalf("reference run (args=%v): %v", args, err)
		}
		got, err := interp.Run(opt, interp.Options{Args: args})
		if err != nil {
			t.Fatalf("optimized run (args=%v): %v\n%s", args, err, opt)
		}
		if got.Output != want.Output {
			t.Errorf("mode=%v args=%v: output mismatch\n got: %q\nwant: %q\nIR:\n%s",
				mode, args, got.Output, want.Output, opt)
		}
		if got.Ret != want.Ret {
			t.Errorf("mode=%v args=%v: return %d != %d", mode, args, got.Ret, want.Ret)
		}
	}
}

const redundantLoadSrc = `
int a = 10;
int b = 20;
int main() {
	int *p = &a;
	int *q = &b;
	if (arg(0) > 50) q = p;
	int x = a;
	*q = 99;
	int y = a;   // redundant if *q does not write a
	print(x, y);
	return 0;
}`

func TestSpeculativeRedundancyGetsCheck(t *testing.T) {
	prog, stats := pipeline(t, redundantLoadSrc, core.ModeProfile, false, []int64{0})
	total := Stats{}
	for _, s := range stats {
		total.Add(*s)
	}
	if total.SpecEliminated == 0 {
		t.Errorf("expected a speculative elimination (stats: %+v)\n%s", total, prog.FuncMap["main"])
	}
	if total.ChecksInserted == 0 {
		t.Error("expected at least one check load")
	}
	// the optimized IR must contain a CheckLoad-flagged statement
	found := false
	for _, b := range prog.FuncMap["main"].Blocks {
		for _, st := range b.Stmts {
			if a, ok := st.(*ir.Assign); ok && a.Spec.CheckLoad {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no ld.c in optimized main:\n%s", prog.FuncMap["main"])
	}
}

func TestBaselineDoesNotSpeculate(t *testing.T) {
	prog, stats := pipeline(t, redundantLoadSrc, core.ModeNone, false, []int64{0})
	total := Stats{}
	for _, s := range stats {
		total.Add(*s)
	}
	if total.SpecEliminated != 0 || total.ChecksInserted != 0 {
		t.Errorf("baseline must not speculate: %+v\n%s", total, prog.FuncMap["main"])
	}
}

func TestEquivalenceAcrossModesAndInputs(t *testing.T) {
	// run-time inputs deliberately include the aliasing case (arg > 50)
	// that the profile (arg=0) never saw: mis-speculation must recover.
	runArgs := [][]int64{{0}, {10}, {60}, {100}}
	for _, mode := range []core.Mode{core.ModeNone, core.ModeProfile, core.ModeHeuristic} {
		for _, cs := range []bool{false, true} {
			t.Run(fmt.Sprintf("mode=%v_cs=%v", mode, cs), func(t *testing.T) {
				checkEquiv(t, redundantLoadSrc, mode, cs, []int64{0}, runArgs)
			})
		}
	}
}

const loopInvariantSrc = `
int n = 0;
int main() {
	int steps = arg(0);
	int *v = (int*)malloc(8);
	int *w = (int*)malloc(8);
	int i = 0;
	int sum = 0;
	v[0] = 7;
	while (i < steps) {
		sum += v[0];    // loop-invariant load, may-aliased with w stores
		w[i % 8] = sum;
		i++;
	}
	print(sum);
	return 0;
}`

func TestLoopInvariantLoadPromotion(t *testing.T) {
	prog, stats := pipeline(t, loopInvariantSrc, core.ModeProfile, true, []int64{16})
	total := Stats{}
	for _, s := range stats {
		total.Add(*s)
	}
	if total.Eliminated == 0 {
		t.Errorf("loop-invariant v[0] not promoted: %+v\n%s", total, prog.FuncMap["main"])
	}
	checkEquiv(t, loopInvariantSrc, core.ModeProfile, true, []int64{16}, [][]int64{{0}, {1}, {16}, {100}})
}

func TestArithPRE(t *testing.T) {
	src := `
int main() {
	int a = arg(0);
	int b = arg(1);
	int x = 0;
	if (a > b) { x = a * b; }
	int y = a * b;  // partially redundant
	print(x + y);
	return 0;
}`
	prog, stats := pipeline(t, src, core.ModeNone, false, []int64{5, 3})
	total := Stats{}
	for _, s := range stats {
		total.Add(*s)
	}
	if total.Eliminated == 0 && total.Insertions == 0 {
		t.Errorf("a*b not PRE'd: %+v\n%s", total, prog.FuncMap["main"])
	}
	checkEquiv(t, src, core.ModeNone, false, []int64{5, 3}, [][]int64{{5, 3}, {3, 5}, {0, 0}})
}

func TestFullyRedundantArith(t *testing.T) {
	src := `
int main() {
	int a = arg(0);
	int b = arg(1);
	int x = a + b;
	int y = a + b;
	int z = b + a;  // commutative: same class
	print(x, y, z);
	return 0;
}`
	prog, stats := pipeline(t, src, core.ModeNone, false, nil)
	total := Stats{}
	for _, s := range stats {
		total.Add(*s)
	}
	if total.Eliminated < 2 {
		t.Errorf("want >= 2 eliminations for y and z, got %+v\n%s", total, prog.FuncMap["main"])
	}
	checkEquiv(t, src, core.ModeNone, false, nil, [][]int64{{1, 2}, {-4, 9}})
}

func TestCallsKillSpeculation(t *testing.T) {
	src := `
int g = 1;
void touch() { g = g + 1; }
int main() {
	int x = g;
	touch();
	int y = g;  // NOT redundant: the call certainly modifies g
	print(x, y);
	return 0;
}`
	for _, mode := range []core.Mode{core.ModeProfile, core.ModeHeuristic} {
		prog, _ := pipeline(t, src, mode, false, nil)
		// y's load of g must survive (no elimination of the second load)
		loads := 0
		for _, b := range prog.FuncMap["main"].Blocks {
			for _, st := range b.Stmts {
				if a, ok := st.(*ir.Assign); ok && a.RK == ir.RHSCopy {
					if r, ok := a.A.(*ir.Ref); ok && r.Sym.Name == "g" {
						loads++
					}
				}
			}
		}
		if loads < 2 {
			t.Errorf("mode=%v: load of g across call was wrongly eliminated (%d loads)\n%s",
				mode, loads, prog.FuncMap["main"])
		}
		checkEquiv(t, src, mode, false, nil, [][]int64{nil})
	}
}

func TestHeuristicSameSyntaxKill(t *testing.T) {
	src := `
int a = 3;
int main() {
	int *p = &a;
	int x = *p;
	*p = 77;
	int y = *p;
	print(x, y);
	return 0;
}`
	checkEquiv(t, src, core.ModeHeuristic, false, nil, [][]int64{nil})
	prog, _ := pipeline(t, src, core.ModeHeuristic, false, nil)
	got, err := interp.Run(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != "3 77\n" {
		t.Errorf("output %q, want \"3 77\\n\"", got.Output)
	}
}

// TestEquivalenceBattery runs a battery of programs through every mode and
// checks output equivalence against the unoptimized interpreter.
func TestEquivalenceBattery(t *testing.T) {
	programs := []struct {
		name string
		src  string
		args [][]int64
	}{
		{"matrix", `
double M[4][4];
int main() {
	int n = 4;
	for (int i = 0; i < n; i++)
		for (int j = 0; j < n; j++)
			M[i][j] = (double)(i * n + j);
	double trace = 0.0;
	for (int i = 0; i < n; i++) trace += M[i][i];
	print(trace);
	return 0;
}`, [][]int64{nil}},
		{"linkedlist", `
struct node { int val; struct node *next; };
int main() {
	int n = arg(0);
	struct node *head = (struct node*)0;
	for (int i = 0; i < n; i++) {
		struct node *fresh = (struct node*)malloc(2);
		fresh->val = i;
		fresh->next = head;
		head = fresh;
	}
	int sum = 0;
	struct node *p = head;
	while ((int)p != 0) { sum += p->val; p = p->next; }
	print(sum);
	return 0;
}`, [][]int64{{0}, {5}, {50}}},
		{"aliasheavy", `
int buf[16];
int main() {
	int n = arg(0);
	int *p = &buf[0];
	int *q = &buf[8];
	if (n > 1000) q = p;
	int total = 0;
	for (int i = 0; i < n; i++) {
		p[i % 8] = i;
		q[i % 8] = i * 2;
		total += p[i % 8] + q[i % 8];
	}
	print(total);
	return 0;
}`, [][]int64{{0}, {7}, {64}, {2000}}},
		{"recursion", `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() {
	print(fib(arg(0)));
	return 0;
}`, [][]int64{{0}, {1}, {12}}},
		{"floats", `
double acc = 0.0;
double step(double x) { acc += x * 0.5; return acc; }
int main() {
	double last = 0.0;
	for (int i = 0; i < 10; i++) last = step((double)i);
	print(last, acc);
	return 0;
}`, [][]int64{nil}},
	}
	for _, p := range programs {
		for _, mode := range []core.Mode{core.ModeNone, core.ModeProfile, core.ModeHeuristic} {
			for _, cs := range []bool{false, true} {
				name := fmt.Sprintf("%s/mode=%v/cs=%v", p.name, mode, cs)
				t.Run(name, func(t *testing.T) {
					profArgs := []int64{4}
					checkEquiv(t, p.src, mode, cs, profArgs, p.args)
				})
			}
		}
	}
}

// TestCheckedTempOpaqueRegression pins the fix for a miscompilation found
// by fuzzing: a load web with check loads coalesces its temp into one
// register that the ld.c redefines at run time, so the temp's SSA versions
// do not denote stable values. A later PRE round used to canonicalize
// operands through copies of those versions and hoisted `t ^ x` into the
// preheader with the pre-check value. The load inside the loop crosses a
// same-iteration store, so the check always reloads; any reuse of the
// pre-store value is wrong.
func TestCheckedTempOpaqueRegression(t *testing.T) {
	src := `
int G0[8];
int G1[32];
int gscalar = 59;
int main() {
	int seed = arg(0);
	int v = gscalar;
	int *p = &G0[G1[seed & 31] & 7];
	for (int i = 0; i < 2; i++) {
		if (v) {
			*p = 15;
			if (((v < 18) < *p)) {
				v ^= *p;
			}
		}
	}
	print(v);
	return 0;
}`
	// aggressive flags (empty profile) reproduce the original failure
	file, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := source.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(ref, interp.Options{Args: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}

	file2, _ := source.Parse(src)
	prog, err := source.Lower(file2)
	if err != nil {
		t.Fatal(err)
	}
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	core.AssignFlagsTiered(prog, ar, profile.New(), core.ModeProfile, core.DefaultPolicy(), nil) // all weak
	profile.StaticEstimate(prog)
	if _, err := Run(prog, Options{DataSpec: core.ModeProfile, ControlSpec: true, Alias: ar, Verify: true}); err != nil {
		t.Fatal(err)
	}
	got, err := interp.Run(prog, interp.Options{Args: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("regression: got %q want %q\n%s", got.Output, want.Output, prog.FuncMap["main"])
	}
}

// TestSameSymVersionCollisionRegression pins the second fuzzer-found
// miscompilation: when a binary expression's two operands canonicalize to
// different SSA versions of the same web temporary (a location's value
// loaded before and after a store), per-symbol version tracking would
// conflate them and materialize `t - t`. Such occurrences must be left
// unoptimized.
func TestSameSymVersionCollisionRegression(t *testing.T) {
	src := `
int G1[32];
int gscalar = 30;
int square(int x) {
	int d = (x - G1[x & 31]);
	return (d * d);
}
int main() {
	int seed = arg(0);
	for (int z = 0; z < 32; z++) G1[z] = (z * 7 + seed) % 97;
	int before = gscalar;
	gscalar ^= square(G1[before & 31]);
	if (((seed * seed) < before)) {
		if (((gscalar ^ -10) - (-14 - before))) {
			if ((gscalar / 4)) {
				for (int i = 0; i < 13; i++) { }
			}
			seed = square((before - gscalar));  // pre-store minus post-store value
		}
	}
	int v = ((seed < before) - (before * before));
	int check = gscalar;
	check ^= v;
	print(check);
	return 0;
}`
	checkEquiv(t, src, core.ModeNone, true, []int64{3}, [][]int64{{0}, {3}, {7}})
	checkEquiv(t, src, core.ModeProfile, true, []int64{3}, [][]int64{{0}, {3}, {7}})
}

// TestRoundsConvergence: the PRE fixpoint is stable — a higher round cap
// produces identical code to the default (iteration stops when a round
// changes nothing).
func TestRoundsConvergence(t *testing.T) {
	src := `
double *dvec(int n) { return (double*)malloc(n); }
int main() {
	int n = arg(0);
	double *a = dvec(16);
	double *b = dvec(16);
	double s = 0.0;
	for (int i = 0; i < n; i++) {
		s += a[(i * 3) & 15] * b[(i * 5) & 15];
		b[i & 15] = s;
	}
	print(s);
	return 0;
}`
	render := func(rounds int) string {
		file, err := source.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := source.Lower(file)
		if err != nil {
			t.Fatal(err)
		}
		ar := alias.Analyze(prog, alias.Options{TypeBased: true})
		ar.AnnotateWorkers(prog, 0)
		prof := profile.New()
		if _, err := interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: []int64{8}}); err != nil {
			t.Fatal(err)
		}
		prof.ApplyEdges(prog)
		core.AssignFlagsTiered(prog, ar, prof, core.ModeProfile, core.DefaultPolicy(), nil)
		if _, err := Run(prog, Options{DataSpec: core.ModeProfile, ControlSpec: true, Alias: ar, Rounds: rounds}); err != nil {
			t.Fatal(err)
		}
		return prog.FuncMap["main"].String()
	}
	if render(8) != render(20) {
		t.Error("rounds 8 and 20 disagree: the fixpoint is not stable")
	}
}
