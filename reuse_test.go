package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"repro"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// The tests in this file pin guarded build reuse (DESIGN.md §9): a
// BuildCtx miss whose training input makes the same flag decisions and
// the same control-speculation tests as an earlier one shares that
// build, and whatever it shares must be exactly what a full compile of
// its own would have produced.

// reuseSrc reads a program of testdata/reuse: ctlspec.mc, whose
// control speculation flips at training input 61/62, or stray.mc, whose
// flag assignment appends a chi under training input 6 alone.
func reuseSrc(t testing.TB, name string) string {
	t.Helper()
	src, err := os.ReadFile("testdata/reuse/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// drawTrain draws a training input shaped like base the way specbench's
// eval-cold stream does: the leading argument from [base, 2·base), the
// rest as published, plus a trailing sequence number no program reads.
func drawTrain(rng *rand.Rand, base []int64, seq int64) []int64 {
	args := slices.Clone(base)
	args[0] += rng.Int64N(base[0])
	return append(args, seq)
}

// buildSig is what a build is compared by: the machine code's
// fingerprint, the optimizer statistics and the harden report.
type buildSig struct {
	fp     [32]byte
	stats  ssapre.Stats
	harden string
}

func sigOf(t testing.TB, b *repro.Build) buildSig {
	t.Helper()
	rep, err := json.Marshal(b.Harden)
	if err != nil {
		t.Fatal(err)
	}
	return buildSig{fp: b.Code.Fingerprint(), stats: b.TotalStats(), harden: string(rep)}
}

// compileOff compiles with the cache off: no profile, build or reuse
// entry is read.
func compileOff(t testing.TB, src string, cfg repro.Config) buildSig {
	t.Helper()
	repro.SetCacheEnabled(false)
	defer repro.SetCacheEnabled(true)
	c, err := repro.CompileCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sigOf(t, c.Build)
}

// reuseConfigs are the config variants the equivalence test sweeps.
var reuseConfigs = []struct {
	name string
	cfg  repro.Config
}{
	{"profile", repro.Config{Spec: repro.SpecProfile}},
	{"cost", repro.Config{Spec: repro.SpecCost}},
	{"heuristic", repro.Config{Spec: repro.SpecHeuristic}},
	{"aggressive", repro.Config{AggressivePromotion: true}},
	{"no-control-spec", repro.Config{Spec: repro.SpecProfile, NoControlSpec: true}},
	{"fence", repro.Config{Spec: repro.SpecProfile, Harden: "fence"}},
	{"verify", repro.Config{Spec: repro.SpecProfile, VerifyPasses: true}},
}

// TestBuildReuseMatchesCompile compiles every paper kernel and the two
// testdata/reuse programs under 40 seeded training inputs, and the
// golden generated programs under 3, through BuildCtx in each
// reuseConfigs variant. Every build, reused or compiled, must equal a
// cache-off CompileCtx of the same request, and reuse must actually
// happen: each testdata/reuse program compiles to both of its builds
// under SpecProfile and reuses one of them for every other input.
func TestBuildReuseMatchesCompile(t *testing.T) {
	inputs := 40
	if testing.Short() {
		inputs = 8
	}
	type program struct {
		name  string
		src   string
		train [][]int64
	}
	rng := rand.New(rand.NewPCG(29, 1))
	var progs []program
	add := func(name, src string, base []int64) {
		p := program{name: name, src: src}
		for i := 0; i < inputs; i++ {
			p.train = append(p.train, drawTrain(rng, base, int64(i)))
		}
		progs = append(progs, p)
	}
	for _, w := range workloads.All() {
		add(w.Name, w.Src, w.ProfileArgs)
	}
	add("ctlspec", reuseSrc(t, "ctlspec.mc"), []int64{40})
	add("stray", reuseSrc(t, "stray.mc"), []int64{4})
	for seed := int64(1); seed <= 64; seed++ {
		progs = append(progs, program{
			name: fmt.Sprintf("progGen/%d", seed), src: newProgGen(seed).generate(),
			train: [][]int64{{3}, {11}, {29}},
		})
	}

	repro.ResetCaches()
	ctx := context.Background()
	reused0 := repro.BuildsReused()
	for _, rc := range reuseConfigs {
		for _, p := range progs {
			distinct := map[buildSig]bool{}
			var reused uint64
			for _, train := range p.train {
				cfg := rc.cfg
				cfg.ProfileArgs = train
				before := repro.BuildsReused()
				b, err := repro.BuildCtx(ctx, p.src, cfg)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", p.name, rc.name, train, err)
				}
				reused += repro.BuildsReused() - before
				got, want := sigOf(t, b), compileOff(t, p.src, cfg)
				if got != want {
					t.Fatalf("%s/%s %v: BuildCtx %x %+v harden %s\nCompileCtx %x %+v harden %s",
						p.name, rc.name, train, got.fp, got.stats, got.harden, want.fp, want.stats, want.harden)
				}
				if !slices.Equal(b.Config.ProfileArgs, train) {
					t.Fatalf("%s/%s: build carries training input %v, want %v", p.name, rc.name, b.Config.ProfileArgs, train)
				}
				distinct[got] = true
			}
			if (p.name == "ctlspec" || p.name == "stray") && rc.name == "profile" && !testing.Short() {
				if len(distinct) != 2 || reused != uint64(len(p.train)-2) {
					t.Errorf("%s: %d distinct builds, %d of %d reused; want 2 and %d",
						p.name, len(distinct), reused, len(p.train), len(p.train)-2)
				}
			}
		}
	}
	if repro.BuildsReused() == reused0 {
		t.Error("no build was reused")
	}
}

// TestBuildReuseSharesCode: a reused build is a Build of its own
// (its Config names its own training input) sharing the earlier build's
// code and statistics; the full pipeline runs once. A cache turned off
// and a faulting training run never reuse.
func TestBuildReuseSharesCode(t *testing.T) {
	ctx := context.Background()
	src := reuseSrc(t, "ctlspec.mc")
	repro.ResetCaches()
	compiled, reused := repro.BuildsCompiled(), repro.BuildsReused()
	a, err := repro.BuildCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{70}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.BuildCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{75}})
	if err != nil {
		t.Fatal(err)
	}
	if d := repro.BuildsCompiled() - compiled; d != 1 {
		t.Errorf("compiled %d builds, want 1", d)
	}
	if d := repro.BuildsReused() - reused; d != 1 {
		t.Errorf("reused %d builds, want 1", d)
	}
	if a == b || a.Code != b.Code {
		t.Errorf("reuse: distinct builds %v, shared code %v", a != b, a.Code == b.Code)
	}
	if b.Config.ProfileArgs[0] != 75 {
		t.Errorf("reused build's config trains on %v", b.Config.ProfileArgs)
	}

	// the other side of the flip compiles a build of its own, and a
	// compile with the cache off never reuses
	if _, err := repro.BuildCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{50}}); err != nil {
		t.Fatal(err)
	}
	repro.SetCacheEnabled(false)
	_, err = repro.BuildCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{71}})
	repro.SetCacheEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	if d := repro.BuildsCompiled() - compiled; d != 3 {
		t.Errorf("compiled %d builds, want 3", d)
	}
	if d := repro.BuildsReused() - reused; d != 1 {
		t.Errorf("reused %d builds, want 1", d)
	}

	// a training run that faults falls back to the static estimate,
	// and such a build is never shared
	const faulting = `int main() { int n = arg(0); print(10 / n); return 0; }`
	for _, train := range [][]int64{{0}, {0, 1}} {
		b, err := repro.BuildCtx(ctx, faulting, repro.Config{Spec: repro.SpecProfile, ProfileArgs: train})
		if err != nil {
			t.Fatal(err)
		}
		if b.ProfileErr == nil {
			t.Fatalf("training input %v did not fault", train)
		}
	}
	if d := repro.BuildsCompiled() - compiled; d != 5 {
		t.Errorf("compiled %d builds, want 5", d)
	}
	if d := repro.BuildsReused() - reused; d != 1 {
		t.Errorf("reused %d builds, want 1", d)
	}
}
