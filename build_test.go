package repro_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The tests in this file pin the build cache (repro.BuildCtx): a repeat
// of a (source, semantic config) pair compiles nothing and returns the
// same immutable *Build, every semantic option gets a build of its own,
// concurrent callers share one compile, cancellation is never memoized,
// and the served bytes do not depend on the cache.

func equake(t *testing.T) (workloads.Workload, repro.Config) {
	t.Helper()
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	return w, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
}

// TestBuildCtxMemoizes: a repeat at another worker count is a hit; a
// verified or hardened variant is a miss with its own build; and the
// cached build carries what a fresh CompileCtx produces.
func TestBuildCtxMemoizes(t *testing.T) {
	ctx := context.Background()
	w, cfg := equake(t)
	repro.ResetCaches()
	n0 := repro.BuildsCompiled()
	b, err := repro.BuildCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := repro.BuildsCompiled() - n0; got != 1 {
		t.Fatalf("cold BuildCtx compiled %d builds, want 1", got)
	}
	if b.Config.Workers != 0 {
		t.Errorf("build config keeps Workers = %d, want 0", b.Config.Workers)
	}
	again := cfg
	again.Workers = 8
	b2, err := repro.BuildCtx(ctx, w.Src, again)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b || repro.BuildsCompiled()-n0 != 1 {
		t.Fatalf("repeat at workers=8 was not a hit (same build %v, builds compiled %d)", b2 == b, repro.BuildsCompiled()-n0)
	}

	seen := map[*repro.Build]string{b: "plain"}
	for name, set := range map[string]func(*repro.Config){
		"verify": func(c *repro.Config) { c.VerifyPasses = true },
		"fence":  func(c *repro.Config) { c.Harden = "fence" },
		"hoist":  func(c *repro.Config) { c.Harden = "hoist" },
	} {
		v := cfg
		set(&v)
		before := repro.BuildsCompiled()
		vb, err := repro.BuildCtx(ctx, w.Src, v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[vb]; dup {
			t.Errorf("%s request answered from the %s build", name, prev)
		}
		seen[vb] = name
		if repro.BuildsCompiled()-before != 1 {
			t.Errorf("%s: compiled %d builds, want 1", name, repro.BuildsCompiled()-before)
		}
		if (v.Harden != "") != (vb.Harden != nil) {
			t.Errorf("%s: harden report %+v", name, vb.Harden)
		}
	}

	// a config with no JSON encoding has no key: it compiles every time
	nan := repro.Config{Spec: repro.SpecCost, SpecThreshold: math.NaN(), ProfileArgs: w.ProfileArgs}
	before := repro.BuildsCompiled()
	n1, err1 := repro.BuildCtx(ctx, w.Src, nan)
	n2, err2 := repro.BuildCtx(ctx, w.Src, nan)
	if err1 != nil || err2 != nil || n1 == n2 || repro.BuildsCompiled()-before != 2 {
		t.Errorf("NaN threshold: errs %v, %v; distinct builds %v; compiled %d, want 2",
			err1, err2, n1 != n2, repro.BuildsCompiled()-before)
	}

	c, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Code.String() != b.Code.String() || !reflect.DeepEqual(c.Stats, b.Stats) || c.Functions != b.Functions {
		t.Error("cached build differs from a fresh CompileCtx")
	}
	if b.Functions != len(c.Prog.Funcs) {
		t.Errorf("Functions = %d, want %d", b.Functions, len(c.Prog.Funcs))
	}
}

// TestBuildCtxConcurrentOneCompile: concurrent callers of one key (run
// it under -race) compile once and all receive the same *Build.
func TestBuildCtxConcurrentOneCompile(t *testing.T) {
	w, cfg := equake(t)
	repro.ResetCaches()
	n0 := repro.BuildsCompiled()
	const callers = 8
	builds := make([]*repro.Build, callers)
	var wg sync.WaitGroup
	for i := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Workers = i%2 + 1
			b, err := repro.BuildCtx(context.Background(), w.Src, c)
			if err != nil {
				t.Error(err)
				return
			}
			builds[i] = b
		}()
	}
	wg.Wait()
	if got := repro.BuildsCompiled() - n0; got != 1 {
		t.Errorf("%d concurrent callers compiled %d builds, want 1", callers, got)
	}
	for i, b := range builds {
		if b != builds[0] {
			t.Errorf("caller %d got a different build", i)
		}
	}
}

// TestBuildCtxCancelNotMemoized: a cancelled owner's context error
// reaches that caller only; the next caller with a live context
// compiles, and the one after hits.
func TestBuildCtxCancelNotMemoized(t *testing.T) {
	w, cfg := equake(t)
	repro.ResetCaches()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.BuildCtx(ctx, w.Src, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BuildCtx = %v, want context.Canceled", err)
	}
	n0 := repro.BuildsCompiled()
	b, err := repro.BuildCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatalf("cancellation was memoized: %v", err)
	}
	if got := repro.BuildsCompiled() - n0; got != 1 {
		t.Errorf("live caller compiled %d builds, want 1", got)
	}
	if b2, err := repro.BuildCtx(context.Background(), w.Src, cfg); err != nil || b2 != b {
		t.Errorf("third call: same build %v, err %v", b2 == b, err)
	}
}

// TestBuildCtxErrorsMemoized: a deterministic compile error is served
// from the cache like a result.
func TestBuildCtxErrorsMemoized(t *testing.T) {
	repro.ResetCaches()
	src := "func main() { print(undefined_variable); }"
	_, err1 := repro.BuildCtx(context.Background(), src, repro.Config{})
	if err1 == nil {
		t.Fatal("expected a compile error")
	}
	n0 := repro.BuildsCompiled()
	_, err2 := repro.BuildCtx(context.Background(), src, repro.Config{})
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("repeat error %v, want %v", err2, err1)
	}
	if repro.BuildsCompiled() != n0 {
		t.Error("a memoized compile error was recompiled")
	}
}

// TestRunEvalBytesAcrossBuildCache: RunEvalCtx's reply bytes are the
// same with the cache off (the oracle), cold and warm, at 1 and 8
// workers, and a warm repeat compiles nothing.
func TestRunEvalBytesAcrossBuildCache(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every workload six times")
	}
	var reqs []experiments.EvalRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, experiments.EvalRequest{Workload: w.Name})
	}
	reqs = append(reqs,
		experiments.EvalRequest{Workload: "equake", Verify: true, Harden: "hoist"},
		experiments.EvalRequest{Workload: "mcf", Config: &repro.Config{Spec: repro.SpecCost}},
	)
	render := func(mode string, workers int) []string {
		t.Helper()
		out := make([]string, len(reqs))
		for i, req := range reqs {
			req.Workers = workers
			res, err := experiments.RunEvalCtx(context.Background(), req)
			if err != nil {
				t.Fatalf("%s workers=%d %s: %v", mode, workers, req.Workload, err)
			}
			data, err := experiments.MarshalEval(res)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(data)
		}
		return out
	}
	repro.SetCacheEnabled(false)
	oracle := render("off", 1)
	repro.SetCacheEnabled(true)
	for _, workers := range []int{1, 8} {
		repro.ResetCaches()
		cold := render("cold", workers)
		n0 := repro.BuildsCompiled()
		warm := render("warm", workers)
		if got := repro.BuildsCompiled() - n0; got != 0 {
			t.Errorf("workers=%d: warm pass compiled %d builds, want 0", workers, got)
		}
		for name, got := range map[string][]string{"cold": cold, "warm": warm} {
			for i := range reqs {
				if got[i] != oracle[i] {
					t.Errorf("%s workers=%d: %s reply differs from the cache-off oracle", name, workers, reqs[i].Workload)
				}
			}
		}
	}
}

// TestCompileStatsDeterministic compiles every kernel under every
// speculation mode repeatedly with the cache off and requires identical
// optimizer statistics each time. The build cache pins whichever result
// the first compile produced for the life of the process, so any
// order-dependence here would surface as replies that differ between
// processes.
func TestCompileStatsDeterministic(t *testing.T) {
	reps := 12
	if testing.Short() {
		reps = 3
	}
	repro.SetCacheEnabled(false)
	defer repro.SetCacheEnabled(true)
	for _, w := range workloads.All() {
		for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecCost, repro.SpecHeuristic} {
			cfg := repro.Config{Spec: mode, ProfileArgs: w.ProfileArgs, Workers: 1}
			var first *repro.Compilation
			for i := 0; i < reps; i++ {
				c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, mode, err)
				}
				if first == nil {
					first = c
					continue
				}
				if !reflect.DeepEqual(c.Stats, first.Stats) {
					for fn, s := range c.Stats {
						if *s != *first.Stats[fn] {
							t.Errorf("%s/%s compile %d: %s stats %+v, first compile %+v", w.Name, mode, i, fn, *s, *first.Stats[fn])
						}
					}
					break
				}
			}
		}
	}
}
