package interp

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
)

// compile parses and lowers a MiniC program, failing the test on error.
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

// run executes a program and returns its captured output.
func run(t *testing.T, src string, args ...int64) (*Result, string) {
	t.Helper()
	prog := compile(t, src)
	res, err := Run(prog, Options{Args: args})
	if err != nil {
		t.Fatalf("run: %v\nIR:\n%s", err, prog)
	}
	return res, res.Output
}

func TestArithmetic(t *testing.T) {
	_, out := run(t, `
int main() {
	int a = 6;
	int b = 7;
	print(a*b, a+b, a-b, b/a, b%a);
	print(a < b, a > b, a == 6, a != 6, -a);
	return 0;
}`)
	want := "42 13 -1 1 1\n1 0 1 0 -6\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFloatArithmetic(t *testing.T) {
	_, out := run(t, `
int main() {
	double x = 1.5;
	double y = 2.0;
	print(x+y, x*y, x/y, x-y);
	print(x < y, y == 2.0);
	int i = (int)(x * 4.0);
	print(i);
	double z = 3;
	print(z + 0.5);
	return 0;
}`)
	want := "3.5 3 0.75 -0.5\n1 1\n6\n3.5\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestControlFlow(t *testing.T) {
	_, out := run(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) sum += i;
	}
	int j = 0;
	while (j < 5) { j++; }
	print(sum, j);
	int k = 0;
	for (;;) {
		k++;
		if (k >= 3) break;
	}
	print(k);
	return 0;
}`)
	want := "20 5\n3\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestShortCircuit(t *testing.T) {
	_, out := run(t, `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
	int a = 0;
	if (a && bump()) { print(99); }
	print(g);
	if (a || bump()) { print(g); }
	return 0;
}`)
	want := "0\n1\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestPointersAndArrays(t *testing.T) {
	_, out := run(t, `
int A[10];
int main() {
	for (int i = 0; i < 10; i++) A[i] = i * i;
	int *p = &A[3];
	print(*p, A[9]);
	*p = 100;
	print(A[3]);
	int x = 5;
	int *q = &x;
	*q = 7;
	print(x);
	return 0;
}`)
	want := "9 81\n100\n7\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestMallocAndStructs(t *testing.T) {
	_, out := run(t, `
struct node {
	int val;
	struct node *next;
};
int main() {
	struct node *head = (struct node*)malloc(2);
	head->val = 1;
	head->next = (struct node*)malloc(2);
	head->next->val = 2;
	head->next->next = (struct node*)malloc(2);
	head->next->next->val = 3;
	head->next->next->next = (struct node*)0;
	int sum = 0;
	struct node *p = head;
	while ((int)p != 0) {
		sum += p->val;
		p = p->next;
	}
	print(sum);
	return 0;
}`)
	want := "6\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	_, out := run(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int gcd(int a, int b) {
	while (b != 0) { int t = b; b = a % b; a = t; }
	return a;
}
int main() {
	print(fib(10), gcd(48, 36));
	return 0;
}`)
	want := "55 12\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	_, out := run(t, `
int counter = 5;
double scale = 2.5;
int main() {
	counter = counter + 1;
	print(counter, scale);
	return 0;
}`)
	want := "6 2.5\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestArgs(t *testing.T) {
	res, out := run(t, `
int main() {
	int n = arg(0);
	int m = arg(1);
	int missing = arg(7);
	print(n, m, missing);
	return n + m;
}`, 40, 2)
	want := "40 2 0\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
	if res.Ret != 42 {
		t.Errorf("return = %d, want 42", res.Ret)
	}
}

func TestAddressTakenLocal(t *testing.T) {
	// x is read before &x appears; legalization must still treat the
	// earlier read as a load.
	_, out := run(t, `
void setit(int *p) { *p = 9; }
int main() {
	int x = 1;
	int y = x + 1;
	setit(&x);
	print(x, y);
	return 0;
}`)
	want := "9 2\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestTwoDimensionalArrays(t *testing.T) {
	_, out := run(t, `
double M[3][4];
int main() {
	for (int i = 0; i < 3; i++)
		for (int j = 0; j < 4; j++)
			M[i][j] = (double)(i * 10 + j);
	double sum = 0.0;
	for (int i = 0; i < 3; i++)
		for (int j = 0; j < 4; j++)
			sum += M[i][j];
	print(sum, M[2][3]);
	return 0;
}`)
	want := "138 23\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestDivisionByZero(t *testing.T) {
	prog := compile(t, `
int main() {
	int a = 1;
	int b = 0;
	print(a / b);
	return 0;
}`)
	if _, err := Run(prog, Options{}); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestStepLimit(t *testing.T) {
	prog := compile(t, `
int main() {
	while (1) { }
	return 0;
}`)
	if _, err := Run(prog, Options{MaxSteps: 1000}); err == nil {
		t.Fatal("expected step-limit error")
	} else if !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEdgeProfile(t *testing.T) {
	prog := compile(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 10 == 0) sum += 100;
		else sum += 1;
	}
	print(sum);
	return 0;
}`)
	prof := runWithProfile(t, prog, nil)
	total := uint64(0)
	for _, c := range prof.Funcs {
		for _, n := range c.Blocks {
			total += n
		}
	}
	if total == 0 {
		t.Fatal("no block counts collected")
	}
	prof.ApplyEdges(prog)
	// the loop header must be hot: some block executes >= 100 times
	hot := false
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if b.Freq >= 100 {
				hot = true
			}
		}
	}
	if !hot {
		t.Error("expected a block with frequency >= 100 after ApplyEdges")
	}
}

// runWithProfile executes prog with full profiling and returns the profile.
func runWithProfile(t *testing.T, prog *ir.Program, args []int64) *profile.Profile {
	t.Helper()
	prof := profile.New()
	if _, err := Run(prog, Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: args}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	return prof
}

func TestAliasProfileLocSets(t *testing.T) {
	prog := compile(t, `
int a = 0;
int b = 0;
int main() {
	int *p = &a;
	int n = arg(0);
	if (n > 0) p = &b;
	*p = 5;      // writes b when arg(0)>0
	int x = *p;  // reads b
	print(x);
	return 0;
}`)
	prof := runWithProfile(t, prog, []int64{1})
	// Exactly one indirect store site and it must have recorded LOC {b}.
	if len(prof.StoreLocs) != 1 {
		t.Fatalf("expected 1 store site, got %d", len(prof.StoreLocs))
	}
	for site, locs := range prof.StoreLocs {
		if got := locs.String(); got != "{b}" {
			t.Errorf("store site %d LOC set = %s, want {b}", site, got)
		}
	}
	foundLoad := false
	for _, locs := range prof.LoadLocs {
		if locs.String() == "{b}" {
			foundLoad = true
		}
	}
	if !foundLoad {
		t.Errorf("no load site recorded LOC {b}; load sets: %v", prof.LoadLocs)
	}
}

// TestAliasProfileCounts pins one store site's counted LOC multiset
// and execution total through runs of one location broken by another,
// and checks that a run that faults after the loop leaves the same
// profile as one that finishes.
func TestAliasProfileCounts(t *testing.T) {
	prog := compile(t, `
int a = 0;
int b = 0;
int main() {
	int n = arg(0);
	for (int i = 0; i < n; i++) {
		int *p = &a;
		if (i % 3 == 2) p = &b;
		*p = i;
	}
	print(10 / arg(1));
	return 0;
}`)
	for _, divisor := range []int64{1, 0} {
		prof := profile.New()
		_, err := Run(prog, Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: []int64{8, divisor}})
		if (err != nil) != (divisor == 0) {
			t.Fatalf("divisor %d: run error %v", divisor, err)
		}
		if len(prof.StoreLocs) != 1 {
			t.Fatalf("divisor %d: %d store sites, want 1", divisor, len(prof.StoreLocs))
		}
		for site, locs := range prof.StoreLocs {
			counts := map[string]uint64{}
			for l, n := range locs {
				counts[l.String()] = n
			}
			if counts["a"] != 6 || counts["b"] != 2 || len(counts) != 2 || prof.Total(site) != 8 {
				t.Errorf("divisor %d: store site %d counts %v, total %d; want a:6 b:2, total 8",
					divisor, site, counts, prof.Total(site))
			}
		}
	}
}

func TestAliasProfileHeap(t *testing.T) {
	prog := compile(t, `
int main() {
	int *p = (int*)malloc(4);
	p[0] = 1;
	p[1] = 2;
	print(p[0] + p[1]);
	return 0;
}`)
	prof := runWithProfile(t, prog, nil)
	heapSeen := false
	for _, locs := range prof.StoreLocs {
		for l := range locs {
			if strings.HasPrefix(l.String(), "heap@") {
				heapSeen = true
			}
		}
	}
	if !heapSeen {
		t.Error("no heap LOC recorded for stores through malloc'd pointer")
	}
}

func TestCallModRef(t *testing.T) {
	prog := compile(t, `
int g = 0;
void touch() { g = g + 1; }
int main() {
	touch();
	print(g);
	return 0;
}`)
	prof := runWithProfile(t, prog, nil)
	found := false
	for _, mods := range prof.CallMod {
		if mods.String() == "{g}" {
			found = true
		}
	}
	if !found {
		t.Errorf("call mod sets missing {g}: %v", prof.CallMod)
	}
}

func TestReuseSimCountsRedundantLoads(t *testing.T) {
	prog := compile(t, `
int A[100];
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i++) A[i] = i;
	// the same A[5] load repeated: all but the first are reusable
	for (int i = 0; i < 50; i++) sum += A[5];
	print(sum);
	return 0;
}`)
	sim := NewReuseSim(map[int]int{})
	if _, err := Run(prog, Options{Reuse: sim}); err != nil {
		t.Fatal(err)
	}
	if sim.Loads == 0 {
		t.Fatal("reuse sim saw no loads")
	}
	if sim.PotentialReduction() < 0.4 {
		t.Errorf("potential reduction = %.2f, want >= 0.4 (49 of ~%d loads reusable)",
			sim.PotentialReduction(), sim.Loads)
	}
}

func TestHeapContextNaming(t *testing.T) {
	// two objects allocated through one wrapper must get distinct LOCs
	// (1-level call-path naming), while direct allocations in main get
	// context 0
	prog := compile(t, `
int *ivec(int n) { return (int*)malloc(n); }
int main() {
	int *a = ivec(4);
	int *b = ivec(4);
	int *c = (int*)malloc(4);
	a[0] = 1;
	b[0] = 2;
	c[0] = 3;
	print(a[0] + b[0] + c[0]);
	return 0;
}`)
	prof := runWithProfile(t, prog, nil)
	locs := map[profile.Loc]bool{}
	for _, set := range prof.StoreLocs {
		for l := range set {
			if l.Kind == profile.LocHeap {
				locs[l] = true
			}
		}
	}
	if len(locs) != 3 {
		t.Fatalf("want 3 distinct heap LOCs, got %d: %v", len(locs), locs)
	}
	ctxZero := 0
	for l := range locs {
		if l.Ctx == 0 {
			ctxZero++
		}
	}
	if ctxZero != 1 {
		t.Errorf("exactly the direct malloc should have ctx 0, got %d", ctxZero)
	}
}

func TestRecursionSharesLocalLoc(t *testing.T) {
	// all activations of a recursive function share one LOC per local
	// (the profiling granularity the paper uses)
	prog := compile(t, `
int down(int n, int *sink) {
	int slot = n;
	int *p = &slot;
	*sink += *p;
	if (n <= 0) return 0;
	return down(n - 1, sink);
}
int main() {
	int acc = 0;
	down(3, &acc);
	print(acc);
	return 0;
}`)
	prof := runWithProfile(t, prog, nil)
	slotLocs := map[profile.Loc]bool{}
	for _, set := range prof.LoadLocs {
		for l := range set {
			if l.Kind == profile.LocLocal && l.Name == "slot" {
				slotLocs[l] = true
			}
		}
	}
	if len(slotLocs) != 1 {
		t.Errorf("recursive activations must share one LOC for slot, got %d", len(slotLocs))
	}
}

func TestStackOverflowDetected(t *testing.T) {
	prog := compile(t, `
int infinite(int n) {
	int arr[64];
	arr[0] = n;
	return infinite(n + arr[0]);
}
int main() { return infinite(1); }`)
	if _, err := Run(prog, Options{}); err == nil {
		t.Fatal("expected stack/recursion error")
	}
}

// TestStackOverflowMessage pins the fault a frame that does not fit
// below the heap raises: the third activation of big needs more than
// the 1 Mi-slot stack region.
func TestStackOverflowMessage(t *testing.T) {
	prog := compile(t, `
int big(int n) {
	int arr[400000];
	arr[0] = n;
	if (n == 0) return 0;
	return big(n - 1) + arr[0];
}
int main() { return big(5); }`)
	_, err := Run(prog, Options{})
	if err == nil || err.Error() != "interp: stack overflow in big" {
		t.Fatalf("err = %v, want interp: stack overflow in big", err)
	}
}

func TestInvalidAddressFaults(t *testing.T) {
	for name, src := range map[string]string{
		"wild load": `
int main() {
	int *p = (int*)99999999;
	return *p;
}`,
		"wild store": `
int main() {
	int *p = (int*)99999999;
	*p = 1;
	return 0;
}`,
		"negative alloc": `
int main() {
	int *p = (int*)malloc(0 - 5);
	return 0;
}`,
		"load past an allocation": `
int main() {
	int *p = (int*)malloc(4);
	p[0] = 7;
	print(p[5]);
	return 0;
}`,
		"store past an allocation": `
int main() {
	int *p = (int*)malloc(4);
	p[4] = 7;
	return 0;
}`,
	} {
		prog := compile(t, src)
		if _, err := Run(prog, Options{}); err == nil {
			t.Errorf("%s: expected a runtime fault", name)
		}
	}
}

func TestReuseSimSeparatesInvocations(t *testing.T) {
	// the same address re-read in *different* invocations must not count
	// as reuse (the paper's "within the same procedure invocation")
	prog := compile(t, `
int A[4];
int readit() { return A[2]; }
int main() {
	A[2] = 5;
	int s = 0;
	for (int i = 0; i < 50; i++) s += readit();
	print(s);
	return 0;
}`)
	sim := NewReuseSim(map[int]int{})
	if _, err := Run(prog, Options{Reuse: sim}); err != nil {
		t.Fatal(err)
	}
	if sim.PotentialReduction() > 0.1 {
		t.Errorf("cross-invocation loads wrongly counted as reuse: %.2f", sim.PotentialReduction())
	}
	// whereas repeated loads within one invocation do count
	prog2 := compile(t, `
int A[4];
int main() {
	A[2] = 5;
	int s = 0;
	for (int i = 0; i < 50; i++) s += A[2];
	print(s);
	return 0;
}`)
	sim2 := NewReuseSim(map[int]int{})
	if _, err := Run(prog2, Options{Reuse: sim2}); err != nil {
		t.Fatal(err)
	}
	if sim2.PotentialReduction() < 0.3 {
		t.Errorf("in-invocation reuse not detected: %.2f", sim2.PotentialReduction())
	}
}

// TestRunAllocations guards the on-demand memory image: interpreting a
// small program must not build the whole 1 Mi-slot stack region or copy
// it on the first allocation.
func TestRunAllocations(t *testing.T) {
	prog := compile(t, `
int sum(int *a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += a[i];
	return s;
}
int main() {
	int n = arg(0);
	int *a = (int*)malloc(n);
	for (int i = 0; i < n; i++) a[i] = i;
	print(sum(a, n));
	return 0;
}`)
	interpret := func() {
		res, err := Run(prog, Options{Args: []int64{100}, CollectEdges: true, CollectAlias: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != "4950\n" {
			t.Fatalf("output %q, want 4950", res.Output)
		}
	}
	if got := bytesPerRun(10, interpret); got >= 1<<20 {
		t.Errorf("Run allocates %d bytes per call, want under 1 MiB", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
