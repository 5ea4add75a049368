package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The tests in this file pin the profile-once contract of the
// compilation cache: a cold sweep runs the profiling interpreter exactly
// once per (source, training-args) pair, a repeated sweep runs it zero
// times, and the rendered experiment report is byte-identical with the
// cache disabled, cold, warm, and at any worker count.

// TestSweepProfilesOncePerPair asserts via the cache counters that a
// cold RunAllCtx performs one profiling interpreter run per workload (all
// four config variants of a workload share one run), records one
// machine trace per distinct compiled program, and that repeating the
// sweep performs neither.
func TestSweepProfilesOncePerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	repro.ResetCaches()
	runs0 := repro.ProfilingRuns()
	stats0 := repro.CacheStats()
	if _, err := experiments.RunAllCtx(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	computes := repro.CacheStats().Computes - stats0.Computes
	n := uint64(len(workloads.All()))
	if got := repro.ProfilingRuns() - runs0; got != n {
		t.Errorf("cold sweep ran the profiling interpreter %d times, want exactly %d (one per workload)", got, n)
	}
	// Each variant's Run looks its trace up by (code fingerprint, args,
	// limits); variants that compile to identical code share one. The
	// four variants experiments.RunOneCtx measures, recompiled here from the
	// now-warm cache, give the number of distinct trace keys.
	traces := map[string]bool{}
	for _, w := range workloads.All() {
		for _, cfg := range []repro.Config{
			{Spec: repro.SpecOff},
			{Spec: repro.SpecProfile},
			{Spec: repro.SpecHeuristic},
			{AggressivePromotion: true},
		} {
			cfg.ProfileArgs = w.ProfileArgs
			c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			traces[fmt.Sprint(c.Code.Fingerprint(), w.RefArgs)] = true
		}
	}
	// one frontend parse + one profiling run per workload, and one trace
	// entry per distinct trace key
	if want := 2*n + uint64(len(traces)); computes != want {
		t.Errorf("cold sweep computed %d cache entries, want %d (%d workloads, %d distinct traces)",
			computes, want, n, len(traces))
	}
	// a second sweep in the same process is fully memoized
	runs1 := repro.ProfilingRuns()
	if _, err := experiments.RunAllCtx(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if got := repro.ProfilingRuns() - runs1; got != 0 {
		t.Errorf("warm in-memory sweep ran the profiling interpreter %d times, want 0", got)
	}
}

// TestReportByteIdenticalAcrossCacheModes renders the full experiment
// report with memoization disabled (the oracle), cold, warm, and with 8
// workers — all four byte strings must be identical.
func TestReportByteIdenticalAcrossCacheModes(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full report repeatedly")
	}
	render := func(name string, workers int) string {
		t.Helper()
		var b strings.Builder
		if err := experiments.ReportCtx(context.Background(), &b, workers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b.String()
	}

	repro.SetCacheEnabled(false)
	oracle := render("disabled", 1)
	repro.SetCacheEnabled(true)

	repro.ResetCaches()
	variants := map[string]string{
		"cold":        render("cold", 1),
		"warm-memory": render("warm-memory", 1),
	}
	variants["workers-8"] = render("workers-8", 8)

	if len(oracle) == 0 {
		t.Fatal("empty report")
	}
	for name, got := range variants {
		if got != oracle {
			t.Errorf("%s report differs from the cache-disabled oracle", name)
		}
	}
}
