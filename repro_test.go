package repro

import (
	"context"
	"fmt"
	"testing"
)

// endToEnd compiles src under cfg and checks VM output == reference
// interpreter output for every argument vector.
func endToEnd(t *testing.T, src string, cfg Config, argSets [][]int64) *Compilation {
	t.Helper()
	c, err := CompileCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, args := range argSets {
		want, err := c.RunReferenceCtx(context.Background(), args)
		if err != nil {
			t.Fatalf("reference (args=%v): %v", args, err)
		}
		got, err := c.RunCtx(context.Background(), args)
		if err != nil {
			t.Fatalf("vm run (args=%v): %v\ncode:\n%s", args, err, c.Code)
		}
		if got.Output != want.Output {
			t.Errorf("args=%v spec=%v: output mismatch\n got %q\nwant %q\nIR:\n%s\ncode:\n%s",
				args, cfg.Spec, got.Output, want.Output, c.Prog, c.Code)
		}
		if got.Ret != want.Ret {
			t.Errorf("args=%v: ret %d != %d", args, got.Ret, want.Ret)
		}
	}
	return c
}

func allConfigs() []Config {
	return []Config{
		{OptimizeOff: true},
		{Spec: SpecOff},
		{Spec: SpecOff, NoControlSpec: true},
		{Spec: SpecProfile},
		{Spec: SpecHeuristic},
		{Spec: SpecProfile, NoArith: true},
		{AggressivePromotion: true},
	}
}

const checkRecoverySrc = `
int a = 10;
int b = 20;
int main() {
	int *p = &a;
	int *q = &b;
	if (arg(0) > 50) q = p;
	int x = a;
	*q = 99;
	int y = a;
	print(x, y);
	return 0;
}`

func TestVMEquivalenceOnMisSpeculation(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg.ProfileArgs = []int64{0} // train without aliasing
		name := fmt.Sprintf("spec=%v_opt=%v_agg=%v", cfg.Spec, !cfg.OptimizeOff, cfg.AggressivePromotion)
		t.Run(name, func(t *testing.T) {
			// run with aliasing inputs the profile never saw
			endToEnd(t, checkRecoverySrc, cfg, [][]int64{{0}, {60}, {100}})
		})
	}
}

func TestALATCountsFailedCheck(t *testing.T) {
	cfg := Config{Spec: SpecProfile, ProfileArgs: []int64{0}}
	c, err := CompileCtx(context.Background(), checkRecoverySrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// aliasing input: the check must fail at least once
	res, err := c.RunCtx(context.Background(), []int64{60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CheckLoads == 0 {
		t.Fatalf("expected check loads; counters: %+v\ncode:\n%s", res.Counters, c.Code)
	}
	if res.Counters.FailedChecks == 0 {
		t.Errorf("aliasing store must invalidate the ALAT entry: %+v", res.Counters)
	}
	// non-aliasing input: the check must succeed
	res2, err := c.RunCtx(context.Background(), []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters.CheckLoads == 0 || res2.Counters.FailedChecks != 0 {
		t.Errorf("non-aliasing run: want successful checks, got %+v", res2.Counters)
	}
}

func TestSpeculationReducesCycles(t *testing.T) {
	// a loop with a loop-invariant aliased load: speculative promotion
	// should cut loads and cycles vs the non-speculative baseline
	src := `
double v0 = 3.5;
double w0 = 0.0;
int main() {
	int n = arg(0);
	double *v = &v0;
	double *w = &w0;
	if (arg(1)) { double *tmp = v; v = w; w = tmp; }  // forces may-alias
	double sum = 0.0;
	for (int i = 0; i < n; i++) {
		sum = sum + *v;   // invariant, may-alias *w
		*w = sum;
	}
	print(sum);
	return 0;
}`
	base, err := CompileCtx(context.Background(), src, Config{Spec: SpecOff, ProfileArgs: []int64{64}})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := CompileCtx(context.Background(), src, Config{Spec: SpecProfile, ProfileArgs: []int64{64}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.RunCtx(context.Background(), []int64{1000})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := spec.RunCtx(context.Background(), []int64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Output != rs.Output {
		t.Fatalf("output mismatch: %q vs %q", rb.Output, rs.Output)
	}
	// loads retired excluding checks must drop: the invariant *v load is
	// replaced by checks or hoisted out
	plainB := rb.Counters.LoadsRetired - rb.Counters.CheckLoads
	plainS := rs.Counters.LoadsRetired - rs.Counters.CheckLoads
	if plainS >= plainB {
		t.Errorf("speculation did not reduce plain loads: base=%d spec=%d\nIR:\n%s",
			plainB, plainS, spec.Prog.FuncMap["main"])
	}
	if rs.Counters.Cycles >= rb.Counters.Cycles {
		t.Errorf("speculation did not reduce cycles: base=%d spec=%d", rb.Counters.Cycles, rs.Counters.Cycles)
	}
}

func TestVMEquivalenceBattery(t *testing.T) {
	programs := []struct {
		name string
		src  string
		args [][]int64
	}{
		{"sieve", `
int flags[100];
int main() {
	int count = 0;
	for (int i = 2; i < 100; i++) flags[i] = 1;
	for (int i = 2; i < 100; i++) {
		if (flags[i]) {
			count++;
			for (int j = i + i; j < 100; j += i) flags[j] = 0;
		}
	}
	print(count);
	return 0;
}`, [][]int64{nil}},
		{"pointerchase", `
struct node { int val; struct node *next; };
int main() {
	int n = arg(0);
	struct node *head = (struct node*)0;
	for (int i = 0; i < n; i++) {
		struct node *fresh = (struct node*)malloc(2);
		fresh->val = i * 3;
		fresh->next = head;
		head = fresh;
	}
	int sum = 0;
	for (struct node *p = head; (int)p != 0; p = p->next) sum += p->val;
	print(sum);
	return 0;
}`, [][]int64{{0}, {1}, {31}}},
		{"floatmix", `
double acc[8];
int main() {
	int n = arg(0);
	for (int i = 0; i < 8; i++) acc[i] = 0.5 * (double)i;
	double total = 0.0;
	for (int i = 0; i < n; i++) {
		total += acc[i % 8] * 2.0 - 1.0;
	}
	print(total);
	return 0;
}`, [][]int64{{0}, {13}, {200}}},
		{"nestedcalls", `
int depth = 0;
int helper(int x) {
	depth = depth + 1;
	if (x <= 0) return depth;
	return helper(x - 1) + x;
}
int main() {
	print(helper(arg(0)), depth);
	return 0;
}`, [][]int64{{0}, {3}, {10}}},
		{"swaploop", `
int main() {
	int a = 1;
	int b = 2;
	int n = arg(0);
	for (int i = 0; i < n; i++) {
		int tmp = a;
		a = b;
		b = tmp;
	}
	print(a, b);
	return 0;
}`, [][]int64{{0}, {1}, {7}}},
	}
	for _, p := range programs {
		for _, cfg := range allConfigs() {
			cfg.ProfileArgs = []int64{5}
			name := fmt.Sprintf("%s/spec=%v_opt=%v_agg=%v_noarith=%v",
				p.name, cfg.Spec, !cfg.OptimizeOff, cfg.AggressivePromotion, cfg.NoArith)
			t.Run(name, func(t *testing.T) {
				endToEnd(t, p.src, cfg, p.args)
			})
		}
	}
}

func TestReuseLimit(t *testing.T) {
	src := `
int A[64];
int main() {
	int n = arg(0);
	int sum = 0;
	for (int i = 0; i < 64; i++) A[i] = i;
	for (int i = 0; i < n; i++) sum += A[7];
	print(sum);
	return 0;
}`
	sim, err := ReuseLimitCtx(context.Background(), src, []int64{100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim.PotentialReduction() < 0.3 {
		t.Errorf("repeated A[7] loads should show large reuse potential, got %.2f", sim.PotentialReduction())
	}
}

func TestSeparateProfileWorkflow(t *testing.T) {
	// collect a profile in one step, compile with it in another (the
	// paper's ORC feedback workflow); the result must match in-process
	// profiling exactly.
	data, err := CollectProfileCtx(context.Background(), checkRecoverySrc, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := CompileCtx(context.Background(), checkRecoverySrc, Config{Spec: SpecProfile, ProfileJSON: data})
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := CompileCtx(context.Background(), checkRecoverySrc, Config{Spec: SpecProfile, ProfileArgs: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := fromFile.RunCtx(context.Background(), []int64{60})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inProcess.RunCtx(context.Background(), []int64{60})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Errorf("outputs differ: %q vs %q", r1.Output, r2.Output)
	}
	if r1.Counters.CheckLoads != r2.Counters.CheckLoads ||
		r1.Counters.Cycles != r2.Counters.Cycles {
		t.Errorf("serialized profile produced different code: %+v vs %+v", r1.Counters, r2.Counters)
	}
	if r1.Counters.CheckLoads == 0 {
		t.Error("expected speculation from the serialized profile")
	}
}

// TestCounterCrossValidation: for unoptimized builds, the VM's retired
// load/store counts must equal the interpreter's dynamic counts (the
// lowering is 1:1), anchoring the two execution engines to each other.
func TestCounterCrossValidation(t *testing.T) {
	src := `
int A[32];
double B[8];
int main() {
	int n = arg(0);
	for (int i = 0; i < 32; i++) A[i] = i;
	for (int i = 0; i < 8; i++) B[i] = (double)i * 0.5;
	int s = 0;
	double d = 0.0;
	for (int i = 0; i < n; i++) {
		s += A[i % 32];
		d += B[i % 8];
		A[(i * 3) % 32] = s;
	}
	print(s, d);
	return 0;
}`
	c, err := CompileCtx(context.Background(), src, Config{OptimizeOff: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 10, 333} {
		ref, err := c.RunReferenceCtx(context.Background(), []int64{n})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := c.RunCtx(context.Background(), []int64{n})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(vm.Counters.LoadsRetired) != ref.DynLoads {
			t.Errorf("n=%d: VM loads %d != interp loads %d", n, vm.Counters.LoadsRetired, ref.DynLoads)
		}
		if uint64(vm.Counters.Stores) != ref.DynStores {
			t.Errorf("n=%d: VM stores %d != interp stores %d", n, vm.Counters.Stores, ref.DynStores)
		}
	}
}

// TestNoStrengthAblation: disabling the SR client keeps in-loop multiplies.
func TestNoStrengthAblation(t *testing.T) {
	src := `
int main() {
	int n = arg(0);
	int acc = 0;
	for (int i = 0; i < n; i++) acc += i * 6;
	print(acc);
	return 0;
}`
	withSR, err := CompileCtx(context.Background(), src, Config{Spec: SpecOff, ProfileArgs: []int64{10}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := CompileCtx(context.Background(), src, Config{Spec: SpecOff, ProfileArgs: []int64{10}, NoStrength: true})
	if err != nil {
		t.Fatal(err)
	}
	if withSR.TotalStats().StrengthReduced == 0 {
		t.Error("strength reduction expected with the client on")
	}
	if without.TotalStats().StrengthReduced != 0 {
		t.Error("NoStrength did not disable the client")
	}
	r1, err := withSR.RunCtx(context.Background(), []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := without.RunCtx(context.Background(), []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Errorf("outputs differ: %q vs %q", r1.Output, r2.Output)
	}
	if r1.Counters.Cycles >= r2.Counters.Cycles {
		t.Errorf("SR should be faster: %d vs %d cycles", r1.Counters.Cycles, r2.Counters.Cycles)
	}
}

// TestPipelinedEquivalence: the timing model must never change semantics.
func TestPipelinedEquivalence(t *testing.T) {
	w := checkRecoverySrc
	cfg := Config{Spec: SpecProfile, ProfileArgs: []int64{0}, Schedule: true}
	cfg.Machine = PipelinedMachine()
	endToEnd(t, w, cfg, [][]int64{{0}, {60}, {100}})
}

// TestCompilationDeterminism: compiling the same source twice must produce
// bit-identical code — site ids, temp naming, scheduling and profile use
// are all deterministic, which the serialized-profile workflow depends on.
func TestCompilationDeterminism(t *testing.T) {
	src := checkRecoverySrc
	cfg := Config{Spec: SpecProfile, ProfileArgs: []int64{0}, Schedule: true}
	c1, err := CompileCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Code.String() != c2.Code.String() {
		t.Error("two compiles of identical source differ")
	}
	// and the workload kernels, through the whole pipeline
	r1, err := c1.RunCtx(context.Background(), []int64{60})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.RunCtx(context.Background(), []int64{60})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counters != r2.Counters {
		t.Errorf("counters differ across identical compiles:\n%+v\n%+v", r1.Counters, r2.Counters)
	}
}

// TestProfileErrRecorded pins the failure contract of the training run:
// a faulting training input no longer degrades silently to the static
// estimate — CompileCtx still succeeds (the fallback is well-defined) but
// records the fault on Compilation.ProfileErr.
func TestProfileErrRecorded(t *testing.T) {
	src := `
int main() {
	print(100 / arg(0));
	return 0;
}`
	c, err := CompileCtx(context.Background(), src, Config{Spec: SpecProfile, ProfileArgs: []int64{0}})
	if err != nil {
		t.Fatalf("compile must survive a faulting training run: %v", err)
	}
	if c.ProfileErr == nil {
		t.Fatal("faulting training run (divide by zero) was not recorded on ProfileErr")
	}
	if c.Profile != nil {
		t.Error("a failed training run must not leave a partial profile attached")
	}
	// the fallback build still executes correctly on good inputs
	res, err := c.RunCtx(context.Background(), []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if want := "25\n"; res.Output != want {
		t.Errorf("output %q, want %q", res.Output, want)
	}

	// a good training input on the same source carries no error
	c2, err := CompileCtx(context.Background(), src, Config{Spec: SpecProfile, ProfileArgs: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if c2.ProfileErr != nil {
		t.Fatalf("healthy training run recorded ProfileErr: %v", c2.ProfileErr)
	}
	if c2.Profile == nil {
		t.Error("healthy training run should attach a profile")
	}
}
