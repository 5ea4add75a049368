package repro_test

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestEvaluateCtxCancelMidSweep is the PR's cancellation acceptance
// criterion: start a sensitivity-style sweep via EvaluateCtx, cancel
// mid-flight, and assert (under -race) that the call returns
// context.Canceled promptly and that goroutines drain back to the
// pre-sweep baseline — no leaked workers, no leaked singleflight
// waiters.
func TestEvaluateCtxCancelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and sweeps a workload")
	}
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// a wide grid so the sweep is still mid-flight when we cancel: each
	// config also has a pipelined twin with a load latency of its own, so
	// the walk advances 64 scoreboard lanes (ReplayBatch walks one lane
	// per distinct pipelined clock) even when the trace and its ALAT
	// walks are already cached
	var cfgs []machine.Config
	for i := 0; i < 64; i++ {
		m := machine.Defaults()
		m.ALATSize = 4 + i
		cfgs = append(cfgs, m)
		m.IntLoadLat = 2 + i
		m.Pipelined = true
		cfgs = append(cfgs, m)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.EvaluateCtx(ctx, w.RefArgs, cfgs, 4)
		done <- err
	}()
	// let the sweep get going, then pull the plug
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("EvaluateCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled EvaluateCtx did not return promptly")
	}

	// in-flight replays finish on their own and their goroutines exit;
	// poll until the count is back at (or below) the baseline
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// the compilation is still usable: a fresh context sweeps fine
	res, err := c.EvaluateCtx(context.Background(), w.RefArgs, cfgs[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Fatalf("post-cancel sweep results: %+v", res)
	}
}

// TestCompileCtxCancelled proves CompileCtx checks its context at phase
// boundaries: an already-cancelled context fails fast without running
// the pipeline.
func TestCompileCtxCancelled(t *testing.T) {
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	repro.ResetCaches()
	_, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CompileCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	// and the cancellation did not poison the cache for the next caller
	c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		t.Fatal(err)
	}
	if c.ProfileErr != nil {
		t.Fatalf("profile poisoned by cancelled compile: %v", c.ProfileErr)
	}
}

// TestEntryPointsCancelled passes an already-cancelled context to every
// long-running entry point on cold cache keys: each must return
// context.Canceled without running a pipeline stage, so neither
// BuildsCompiled nor ProfilingRuns moves.
func TestEntryPointsCancelled(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf not registered")
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	live := context.Background()
	comp, err := repro.CompileCtx(live, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(live)
	cancel()

	cases := []struct {
		name string
		call func() error
	}{
		{"CompileCtx", func() error { _, err := repro.CompileCtx(ctx, w.Src, cfg); return err }},
		{"BuildCtx", func() error { _, err := repro.BuildCtx(ctx, w.Src, cfg); return err }},
		{"CollectProfileCtx", func() error { _, err := repro.CollectProfileCtx(ctx, w.Src, w.ProfileArgs); return err }},
		{"ReuseLimitCtx", func() error { _, err := repro.ReuseLimitCtx(ctx, w.Src, w.RefArgs); return err }},
		{"RunReferenceCtx", func() error { _, err := comp.RunReferenceCtx(ctx, w.RefArgs); return err }},
		{"RunCtx", func() error { _, err := comp.RunCtx(ctx, w.RefArgs); return err }},
		{"EvaluateCtx", func() error {
			_, err := comp.EvaluateCtx(ctx, w.RefArgs, experiments.MachineSweepConfigs(), 1)
			return err
		}},
		{"RunAllCtx", func() error { _, err := experiments.RunAllCtx(ctx, 1); return err }},
		{"RunOneCtx", func() error { _, err := experiments.RunOneCtx(ctx, w, 1); return err }},
		{"RunSmvpCtx", func() error { _, err := experiments.RunSmvpCtx(ctx, 1); return err }},
		{"RunSensitivityCtx", func() error { _, err := experiments.RunSensitivityCtx(ctx, 1); return err }},
		{"RunMachineSweepCtx", func() error { _, err := experiments.RunMachineSweepCtx(ctx, "mcf", nil, 1); return err }},
		{"RunThresholdSweepCtx", func() error { _, err := experiments.RunThresholdSweepCtx(ctx, "mcf", nil, 1); return err }},
		{"RunThresholdSweepsCtx", func() error { _, err := experiments.RunThresholdSweepsCtx(ctx, 1); return err }},
		{"RunHardenCtx", func() error { _, err := experiments.RunHardenCtx(ctx, 1); return err }},
		{"RunEvalCtx", func() error {
			_, err := experiments.RunEvalCtx(ctx, experiments.EvalRequest{Workload: "mcf", Workers: 1})
			return err
		}},
		{"RunCorpusDirCtx", func() error { _, err := experiments.RunCorpusDirCtx(ctx, "testdata", 1); return err }},
		{"ReportCtx", func() error { return experiments.ReportCtx(ctx, io.Discard, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			repro.ResetCaches()
			builds, profiles := repro.BuildsCompiled(), repro.ProfilingRuns()
			if err := tc.call(); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s with a cancelled ctx = %v, want context.Canceled", tc.name, err)
			}
			if d := repro.BuildsCompiled() - builds; d != 0 {
				t.Errorf("%s: BuildsCompiled moved by %d", tc.name, d)
			}
			if d := repro.ProfilingRuns() - profiles; d != 0 {
				t.Errorf("%s: ProfilingRuns moved by %d", tc.name, d)
			}
		})
	}
}

// loopSrc counts to arg(0), one block step per iteration.
const loopSrc = `int main() {
	int n = arg(0);
	int s = 0;
	for (int i = 0; i < n; i++) {
		s = s + i;
	}
	return s;
}`

// TestRunCtxDeadline runs a build whose run takes about 10^9 machine
// steps under a 200 ms deadline: the recording looks at its context
// every 2^16 steps, so the run stops with the deadline's error long
// before it would finish or reach the step limit.
func TestRunCtxDeadline(t *testing.T) {
	b, err := repro.BuildCtx(context.Background(), loopSrc, repro.Config{Spec: repro.SpecOff})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = b.RunCtx(ctx, []int64{200_000_000})
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > 1200*time.Millisecond {
		t.Fatalf("RunCtx under a 200 ms deadline: %v after %v, want context.DeadlineExceeded within 1.2 s", err, elapsed)
	}
}

// TestProfilingDeadlineNotMemoized stops a profiling run midway with a
// deadline, then compiles the same source and training input with a
// live context: the compile must succeed with a profile, running the
// profiler exactly once more, so the deadline's error was not memoized.
func TestProfilingDeadlineNotMemoized(t *testing.T) {
	repro.ResetCaches()
	// parse first, so that the deadline falls in the profiling run
	if _, err := repro.CompileCtx(context.Background(), loopSrc, repro.Config{Spec: repro.SpecOff}); err != nil {
		t.Fatal(err)
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{3_000_000}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	runs := repro.ProfilingRuns()
	if _, err := repro.CompileCtx(ctx, loopSrc, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CompileCtx under a 50 ms deadline = %v, want context.DeadlineExceeded", err)
	}
	if got := repro.ProfilingRuns() - runs; got != 1 {
		t.Fatalf("the compile under a deadline started %d profiling runs, want 1", got)
	}
	runs = repro.ProfilingRuns()
	c, err := repro.CompileCtx(context.Background(), loopSrc, cfg)
	if err != nil || c.ProfileErr != nil {
		t.Fatalf("CompileCtx with a live context: %v, profile error %v", err, c.ProfileErr)
	}
	if got := repro.ProfilingRuns() - runs; got != 1 {
		t.Errorf("the live compile ran the profiler %d times, want 1", got)
	}
}
