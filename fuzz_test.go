package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/harden"
	"repro/internal/machine"
	"repro/internal/machine/oracle"
	"repro/internal/specheck"
)

// progGen generates random — but always well-defined — MiniC programs:
// power-of-two arrays indexed through mask expressions (never out of
// bounds), non-zero constant divisors, bounded loops. Every generated
// program prints a checksum, so output equivalence between the reference
// interpreter and the optimized VM build is a meaningful oracle.
type progGen struct {
	rng       *rand.Rand
	sb        strings.Builder
	depth     int
	locals    []string // int locals in scope
	fpLocal   []string // double locals in scope
	arrays    []arrayInfo
	ptrs      []string        // int* locals in scope
	funcs     []string        // helper functions (int f(int))
	loopVars  map[string]bool // read-only (assigning could unbound the loop)
	loopDepth int
}

type arrayInfo struct {
	name string
	size int // power of two
}

func newProgGen(seed int64) *progGen {
	return &progGen{rng: rand.New(rand.NewSource(seed)), loopVars: map[string]bool{}}
}

func (g *progGen) w(format string, args ...any) {
	fmt.Fprintf(&g.sb, format, args...)
}

// expr produces an int expression from locals, constants and array reads.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(41)-20)
		default:
			if len(g.locals) > 0 {
				return g.locals[g.rng.Intn(len(g.locals))]
			}
			return fmt.Sprintf("%d", g.rng.Intn(9))
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / %d)", g.expr(depth-1), 1+g.rng.Intn(7))
	case 4:
		return fmt.Sprintf("(%s < %s)", g.expr(depth-1), g.expr(depth-1))
	case 5:
		if len(g.arrays) > 0 {
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			return fmt.Sprintf("%s[%s & %d]", a.name, g.expr(depth-1), a.size-1)
		}
		return g.expr(depth - 1)
	case 6:
		if len(g.ptrs) > 0 {
			return fmt.Sprintf("*%s", g.ptrs[g.rng.Intn(len(g.ptrs))])
		}
		return g.expr(depth - 1)
	default:
		if len(g.funcs) > 0 && depth >= 2 {
			return fmt.Sprintf("%s(%s)", g.funcs[g.rng.Intn(len(g.funcs))], g.expr(depth-1))
		}
		return fmt.Sprintf("(%s ^ %s)", g.expr(depth-1), g.expr(depth-1))
	}
}

// stmt emits one statement; budget bounds recursion.
func (g *progGen) stmt(indent string, budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	switch g.rng.Intn(11) {
	case 0, 1: // new local
		name := fmt.Sprintf("v%d", len(g.locals)+g.rng.Intn(1000)*1000)
		g.w("%sint %s = %s;\n", indent, name, g.expr(2))
		g.locals = append(g.locals, name)
	case 2, 3: // assign to local (never to a loop variable)
		if len(g.locals) > 0 {
			l := g.locals[g.rng.Intn(len(g.locals))]
			if g.loopVars[l] {
				return
			}
			op := []string{"=", "+=", "-=", "*=", "^=", "|="}[g.rng.Intn(6)]
			g.w("%s%s %s %s;\n", indent, l, op, g.expr(2))
		}
	case 4: // array store
		if len(g.arrays) > 0 {
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			g.w("%s%s[%s & %d] = %s;\n", indent, a.name, g.expr(1), a.size-1, g.expr(2))
		}
	case 5: // pointer write
		if len(g.ptrs) > 0 {
			g.w("%s*%s = %s;\n", indent, g.ptrs[g.rng.Intn(len(g.ptrs))], g.expr(2))
		}
	case 6: // new pointer into an array
		if len(g.arrays) > 0 {
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			name := fmt.Sprintf("p%d", g.rng.Intn(100000))
			g.w("%sint *%s = &%s[%s & %d];\n", indent, name, a.name, g.expr(1), a.size-1)
			g.ptrs = append(g.ptrs, name)
		}
	case 7: // if/else (declarations are scoped to each branch)
		g.w("%sif (%s) {\n", indent, g.expr(2))
		nl, np, nf := len(g.locals), len(g.ptrs), len(g.fpLocal)
		inner := 1 + g.rng.Intn(3)
		for i := 0; i < inner && *budget > 0; i++ {
			g.stmt(indent+"\t", budget)
		}
		g.locals, g.ptrs, g.fpLocal = g.locals[:nl], g.ptrs[:np], g.fpLocal[:nf]
		if g.rng.Intn(2) == 0 {
			g.w("%s} else {\n", indent)
			for i := 0; i < 2 && *budget > 0; i++ {
				g.stmt(indent+"\t", budget)
			}
			g.locals, g.ptrs, g.fpLocal = g.locals[:nl], g.ptrs[:np], g.fpLocal[:nf]
		}
		g.w("%s}\n", indent)
	case 9: // double local / double update
		if g.rng.Intn(2) == 0 || len(g.fpLocal) == 0 {
			name := fmt.Sprintf("d%d", g.rng.Intn(100000))
			g.w("%sdouble %s = (double)(%s) * 0.5;\n", indent, name, g.expr(1))
			g.fpLocal = append(g.fpLocal, name)
		} else {
			d := g.fpLocal[g.rng.Intn(len(g.fpLocal))]
			g.w("%s%s += (double)(%s) + 0.25;\n", indent, d, g.expr(1))
		}
	case 8: // bounded for loop (declarations scoped to the body)
		if g.loopDepth >= 2 {
			return
		}
		g.loopDepth++
		iv := fmt.Sprintf("i%d", g.rng.Intn(100000))
		n := 2 + g.rng.Intn(12)
		g.w("%sfor (int %s = 0; %s < %d; %s++) {\n", indent, iv, iv, n, iv)
		nl, np, nf := len(g.locals), len(g.ptrs), len(g.fpLocal)
		g.locals = append(g.locals, iv)
		g.loopVars[iv] = true
		inner := 1 + g.rng.Intn(3)
		for i := 0; i < inner && *budget > 0; i++ {
			g.stmt(indent+"\t", budget)
		}
		g.w("%s}\n", indent)
		g.locals, g.ptrs, g.fpLocal = g.locals[:nl], g.ptrs[:np], g.fpLocal[:nf]
		delete(g.loopVars, iv)
		g.loopDepth--
	default: // nothing / print progress value
		if len(g.locals) > 0 {
			g.w("%sprint(%s);\n", indent, g.locals[g.rng.Intn(len(g.locals))])
		}
	}
}

// generate builds a whole program.
func (g *progGen) generate() string {
	nArrays := 1 + g.rng.Intn(3)
	for i := 0; i < nArrays; i++ {
		size := 1 << (2 + g.rng.Intn(4)) // 4..32
		name := fmt.Sprintf("G%d", i)
		g.w("int %s[%d];\n", name, size)
		g.arrays = append(g.arrays, arrayInfo{name: name, size: size})
	}
	g.w("int gscalar = %d;\n", g.rng.Intn(100))

	// helper functions
	nFuncs := g.rng.Intn(3)
	for i := 0; i < nFuncs; i++ {
		name := fmt.Sprintf("helper%d", i)
		save := g.locals
		savePtrs := g.ptrs
		saveFP := g.fpLocal
		g.locals = []string{"x"}
		g.ptrs = nil
		g.fpLocal = nil
		g.w("int %s(int x) {\n", name)
		budget := 4
		for b := 0; b < 2; b++ {
			g.stmt("\t", &budget)
		}
		g.w("\treturn %s;\n}\n", g.expr(2))
		g.locals = save
		g.ptrs = savePtrs
		g.fpLocal = saveFP
		g.funcs = append(g.funcs, name)
	}

	g.w("int main() {\n")
	g.w("\tint seed = arg(0);\n")
	g.locals = append(g.locals, "seed", "gscalar")
	// initialize arrays deterministically
	for _, a := range g.arrays {
		g.w("\tfor (int z = 0; z < %d; z++) %s[z] = (z * 7 + seed) %% 97;\n", a.size, a.name)
	}
	budget := 14 + g.rng.Intn(12)
	for budget > 0 {
		g.stmt("\t", &budget)
	}
	// checksum everything observable
	g.w("\tint check = gscalar;\n")
	for _, a := range g.arrays {
		g.w("\tfor (int z = 0; z < %d; z++) check += %s[z] * (z + 1);\n", a.size, a.name)
	}
	for _, l := range g.locals {
		g.w("\tcheck ^= %s;\n", l)
	}
	g.w("\tdouble fcheck = (double)check;\n")
	for _, d := range g.fpLocal {
		g.w("\tfcheck += %s;\n", d)
	}
	g.w("\tprint(check, fcheck);\n\treturn 0;\n}\n")
	return g.sb.String()
}

// TestFuzzEquivalence generates random programs and checks that every
// optimization configuration preserves the reference interpreter's output
// on several inputs, including inputs different from the profiled one.
// Every build also runs with VerifyPasses, so each fuzzed program is a
// soundness probe for the per-pass speculation checker: a specheck
// violation surfaces as a compile error and fails the test.
func TestFuzzEquivalence(t *testing.T) {
	pipelined := machine.Defaults()
	pipelined.Pipelined = true
	tinyALAT := machine.Defaults()
	tinyALAT.ALATSize = 2 // constant eviction pressure: every check recovery path
	configs := []repro.Config{
		{OptimizeOff: true},
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{AggressivePromotion: true},
		{Spec: repro.SpecProfile, Schedule: true, Machine: pipelined},
		{AggressivePromotion: true, Machine: tinyALAT},
		{Spec: repro.SpecProfile, Harden: "fence"},
		{Spec: repro.SpecHeuristic, Harden: "hoist", Schedule: true, Machine: pipelined},
	}
	count := 60
	if testing.Short() {
		count = 15
	}
	cfgQ := &quick.Config{MaxCount: count}
	err := quick.Check(func(seed int64) bool {
		src := newProgGen(seed).generate()
		want := map[int64]string{}
		for _, input := range []int64{0, 3, 41} {
			ref, err := repro.Reference(src, []int64{input})
			if err != nil {
				// generated programs are well-defined by construction;
				// any error is a generator bug worth knowing about
				t.Fatalf("seed %d input %d: reference failed: %v\n%s", seed, input, err, src)
			}
			want[input] = ref.Output
		}
		for ci, cfg := range configs {
			cfg.ProfileArgs = []int64{3}
			cfg.VerifyPasses = true
			c, err := repro.CompileCtx(context.Background(), src, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: compile: %v\n%s", seed, ci, err, src)
			}
			// every generated program goes through the Layer 3 leak
			// analysis; hardened builds must come out leak-free, and
			// whatever leaks an un-hardened build carries must be
			// closable by the mitigation pass without changing output
			leaks := specheck.FindLeaks(c.Code)
			if cfg.Harden != "" && len(leaks) > 0 {
				t.Fatalf("seed %d cfg %d: %d residual leaks on hardened build\n%s", seed, ci, len(leaks), src)
			}
			if cfg.Harden == "" && len(leaks) > 0 {
				hardened := c.Code.Clone()
				if _, err := harden.Apply(hardened, harden.PolicyFence); err != nil {
					t.Fatalf("seed %d cfg %d: harden: %v\n%s", seed, ci, err, src)
				}
				res := runHardened(t, hardened, []int64{41})
				if res.Output != want[41] {
					t.Logf("seed %d cfg %d: hardening changed output\n got: %q\nwant: %q\nprogram:\n%s",
						seed, ci, res.Output, want[41], src)
					return false
				}
			}
			for _, input := range []int64{0, 3, 41} {
				got, err := c.RunCtx(context.Background(), []int64{input})
				if err != nil {
					t.Fatalf("seed %d cfg %d input %d: run: %v\n%s", seed, ci, input, err, src)
				}
				if got.Output != want[input] {
					t.Logf("seed %d cfg %d input %d: MISMATCH\n got: %q\nwant: %q\nprogram:\n%s",
						seed, ci, input, got.Output, want[input], src)
					return false
				}
			}
		}
		return true
	}, cfgQ)
	if err != nil {
		t.Fatal(err)
	}
}

// runHardened runs a hardened build on the machine with its output
// going to a writer, and checks the whole result against the oracle:
// the fences hardening inserts change cycles, never answers.
func runHardened(t *testing.T, code *machine.Program, args []int64) *machine.Result {
	t.Helper()
	var sb strings.Builder
	res, err := machine.Run(code, args, machine.Defaults(), &sb)
	if err != nil {
		t.Fatalf("hardened run: %v", err)
	}
	res.Output = sb.String()
	want, err := oracle.Run(code, args, machine.Defaults())
	if err != nil {
		t.Fatalf("hardened oracle run: %v", err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("hardened run != oracle\noracle %+v\nrun    %+v", want, res)
	}
	return res
}

// TestFuzzBatchedReplay drives the batched timing engine with generated
// programs: for each fuzzed source, record one trace of the optimized
// code and check that every lane of a single ReplayBatch over a mixed
// serial/pipelined grid (with duplicated points and ALAT pressure), and
// the one-lane Replay of each point, agrees field-for-field with the
// oracle. This catches batch-only divergences — lane cross-talk in the
// shared scoreboards, ALAT-table sharing across sizes — on control flow
// no hand-written workload exercises.
func TestFuzzBatchedReplay(t *testing.T) {
	grid := []machine.Config{
		{},
		{Pipelined: true},
		{Pipelined: true, ALATSize: 2},
		{Pipelined: true, ALATSize: 128},
		{Pipelined: true, IntLoadLat: 8, FPLoadLat: 24, CheckMissPen: 16},
		{Pipelined: true}, // duplicate lane
		{ALATSize: 2},
	}
	count := 30
	if testing.Short() {
		count = 8
	}
	cfgQ := &quick.Config{MaxCount: count}
	err := quick.Check(func(seed int64) bool {
		src := newProgGen(seed).generate()
		c, err := repro.CompileCtx(context.Background(), src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{3}})
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		tr, err := machine.Record(c.Code, []int64{41}, machine.Config{})
		if err != nil {
			t.Fatalf("seed %d: record: %v\n%s", seed, err, src)
		}
		batch, err := machine.ReplayBatch(c.Code, tr, grid)
		if err != nil {
			t.Fatalf("seed %d: batch: %v\n%s", seed, err, src)
		}
		for i, mcfg := range grid {
			want, err := oracle.Run(c.Code, []int64{41}, mcfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: oracle: %v\n%s", seed, i, err, src)
			}
			single, err := machine.Replay(c.Code, tr, mcfg, nil)
			if err != nil {
				t.Fatalf("seed %d cfg %d: replay: %v\n%s", seed, i, err, src)
			}
			if !reflect.DeepEqual(want, batch[i]) || !reflect.DeepEqual(want, single) {
				t.Logf("seed %d cfg %+v: replay diverges from the oracle\noracle %+v\nbatch  %+v\nreplay %+v\nprogram:\n%s",
					seed, mcfg, want, batch[i], single, src)
				return false
			}
		}
		return true
	}, cfgQ)
	if err != nil {
		t.Fatal(err)
	}
}

// nearMissPrograms are hand-seeded programs shaped like the soundness
// bugs the checker exists to catch: an always-aliasing store between a
// hoistable load and its reuse, a check whose address is recomputed
// through a CSE'd temp, stacked re-loads of the same location after a
// kill, and a may-alias store reachable on only one CFG path. A correct
// pipeline must compile every one of them specheck-clean in every mode
// AND preserve reference output — these sit as close to the unsound
// boundary as a well-defined program can.
var nearMissPrograms = []struct{ name, src string }{
	{"store-between-load-and-reuse", `
int A[8];
int main() {
	int n = arg(0);
	int *p = &A[3];
	int total = 0;
	for (int i = 0; i < n + 4; i++) {
		total += A[3];
		*p = total % 19;
		total += A[3];
	}
	print(total);
	return 0;
}`},
	{"cse-address-recompute", `
int A[16];
int main() {
	int n = arg(0);
	int total = 0;
	for (int i = 0; i < n + 6; i++) {
		int j = (i * 5) & 15;
		total += A[j];
		A[(j + 8) & 15] = total % 31;
		total += A[j] + A[(i * 5) & 15];
	}
	print(total);
	return 0;
}`},
	{"stacked-reload-after-kill", `
int A[8];
int B[8];
int main() {
	int n = arg(0);
	int *p = &A[2];
	if (n > 5) p = &B[2];
	int total = 0;
	for (int i = 0; i < 9; i++) {
		total += A[2];
		total += A[2] + B[2];
		*p = total % 23;
		total += A[2] + B[2];
		total += A[2];
	}
	print(total);
	return 0;
}`},
	{"one-path-may-alias-store", `
int A[8];
int main() {
	int n = arg(0);
	int *p = &A[1];
	int total = 0;
	for (int i = 0; i < n + 7; i++) {
		int v = A[1];
		if (i & 1) {
			*p = v % 13;
		} else {
			total += v * 3;
		}
		total += A[1] + v;
	}
	print(total);
	return 0;
}`},
}

// TestSpecheckNearMiss compiles each seeded near-miss program under the
// full mode matrix with VerifyPasses and cross-checks outputs against
// the reference on an input the profile never saw.
func TestSpecheckNearMiss(t *testing.T) {
	modes := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{AggressivePromotion: true},
		{Spec: repro.SpecProfile, Schedule: true},
	}
	for _, p := range nearMissPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for ci, cfg := range modes {
				cfg.ProfileArgs = []int64{2}
				cfg.VerifyPasses = true
				c, err := repro.CompileCtx(context.Background(), p.src, cfg)
				if err != nil {
					t.Fatalf("cfg %d: %v", ci, err)
				}
				for _, input := range []int64{0, 2, 9} {
					ref, err := repro.Reference(p.src, []int64{input})
					if err != nil {
						t.Fatalf("reference(%d): %v", input, err)
					}
					got, err := c.RunCtx(context.Background(), []int64{input})
					if err != nil {
						t.Fatalf("cfg %d input %d: %v", ci, input, err)
					}
					if got.Output != ref.Output {
						t.Fatalf("cfg %d input %d: got %q want %q", ci, input, got.Output, ref.Output)
					}
				}
			}
		})
	}
}

// leakNearMissPrograms are hand-seeded sources shaped like speculative
// leaks — a speculatively-promoted load whose value wants to reach an
// address computation or a branch — but arranged so a correct pipeline
// can (and on the bundled compiler, does) keep the sink behind the
// check: the reuse that feeds the sink sits after the point where the
// ld.c lands, taint is laundered through arithmetic only after the
// check, or the tempting path re-loads through a check of its own.
// They probe the boundary Layer 3 draws; the test accepts either
// verdict but insists it is consistent — a clean program stays clean,
// and a leaky placement is fully closable by both mitigation policies
// with reference output preserved.
var leakNearMissPrograms = []struct{ name, src string }{
	{"checked-before-address-sink", `
int A[16];
int B[16];
int main() {
	int n = arg(0);
	int *p = &A[5];
	int total = 0;
	for (int i = 0; i < n + 6; i++) {
		int v = A[5];
		*p = (total + i) % 29;
		total += B[A[5] & 15] + v;
	}
	print(total);
	return 0;
}`},
	{"laundered-after-check", `
int A[8];
int main() {
	int n = arg(0);
	int *p = &A[2];
	int total = 0;
	for (int i = 0; i < n + 5; i++) {
		int v = A[2];
		*p = (v + i) % 17;
		int w = A[2] * 3 + 1;
		if (w & 1) {
			total += w;
		} else {
			total -= 1;
		}
	}
	print(total);
	return 0;
}`},
	{"one-path-dominating-check", `
int A[8];
int main() {
	int n = arg(0);
	int *p = &A[4];
	int total = 0;
	for (int i = 0; i < n + 6; i++) {
		int v = A[4];
		*p = (total ^ i) % 21;
		if (i & 1) {
			total += A[4];
		}
		total += (A[4] & 7) + v;
	}
	print(total);
	return 0;
}`},
}

// TestLeakNearMiss compiles each near-miss leak program under the mode
// matrix, runs Layer 3 on the generated code, and checks the verdict is
// actionable: hardened variants of any leaky placement must verify
// leak-free under BOTH policies and still match the reference output on
// an input the profile never saw.
func TestLeakNearMiss(t *testing.T) {
	modes := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{AggressivePromotion: true},
		{Spec: repro.SpecProfile, Schedule: true},
	}
	for _, p := range leakNearMissPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for ci, cfg := range modes {
				cfg.ProfileArgs = []int64{2}
				cfg.VerifyPasses = true
				c, err := repro.CompileCtx(context.Background(), p.src, cfg)
				if err != nil {
					t.Fatalf("cfg %d: %v", ci, err)
				}
				ref, err := repro.Reference(p.src, []int64{9})
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := c.RunCtx(context.Background(), []int64{9})
				if err != nil {
					t.Fatalf("cfg %d: run: %v", ci, err)
				}
				if got.Output != ref.Output {
					t.Fatalf("cfg %d: got %q want %q", ci, got.Output, ref.Output)
				}
				leaks := specheck.FindLeaks(c.Code)
				if len(leaks) == 0 {
					continue // clean placement: the common verdict
				}
				t.Logf("cfg %d: %d leak(s), e.g. %s", ci, len(leaks), leaks[0])
				for _, pol := range []harden.Policy{harden.PolicyFence, harden.PolicyHoist} {
					hardened := c.Code.Clone()
					rep, err := harden.Apply(hardened, pol)
					if err != nil {
						t.Fatalf("cfg %d %s: %v", ci, pol, err)
					}
					if res := specheck.FindLeaks(hardened); len(res) > 0 {
						t.Fatalf("cfg %d %s: %d residual leaks", ci, pol, len(res))
					}
					if rep.FencesInserted+rep.ChecksHoisted == 0 {
						t.Fatalf("cfg %d %s: leaks closed without mitigations?", ci, pol)
					}
					if res := runHardened(t, hardened, []int64{9}); res.Output != ref.Output {
						t.Fatalf("cfg %d %s: hardened output %q want %q", ci, pol, res.Output, ref.Output)
					}
				}
			}
		})
	}
}

// TestFuzzCheckRecovery stresses the ALAT recovery path: programs with
// guaranteed-aliasing pointer writes inside loops, trained on a different
// input than they run on.
func TestFuzzCheckRecovery(t *testing.T) {
	count := 40
	if testing.Short() {
		count = 10
	}
	cfgQ := &quick.Config{MaxCount: count}
	err := quick.Check(func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 8
		// a program whose pointer aliases one of two arrays depending on
		// the input — the profile only ever sees one side
		src := fmt.Sprintf(`
int A[%d];
int B[%d];
int main() {
	int mode = arg(0);
	int n = arg(1);
	int *p = &A[%d];
	if (mode) p = &B[%d];
	int total = 0;
	for (int i = 0; i < n; i++) {
		total += B[%d] + A[%d];
		*p = total %% 50;
		total += B[%d];
	}
	print(total);
	return 0;
}`, size, size, rng.Intn(size), rng.Intn(size), rng.Intn(size), rng.Intn(size), rng.Intn(size))
		trainMode := int64(pick % 2)
		c, err := repro.CompileCtx(context.Background(), src, repro.Config{
			Spec: repro.SpecProfile, ProfileArgs: []int64{trainMode, 6},
		})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, mode := range []int64{0, 1} {
			args := []int64{mode, 37}
			ref, err := repro.Reference(src, args)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := c.RunCtx(context.Background(), args)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got.Output != ref.Output {
				t.Logf("seed %d trained=%d ran=%d: %q != %q\n%s",
					seed, trainMode, mode, got.Output, ref.Output, src)
				return false
			}
		}
		return true
	}, cfgQ)
	if err != nil {
		t.Fatal(err)
	}
}
