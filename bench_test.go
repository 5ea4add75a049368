package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/workloads"
)

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (§5). Each reports the paper's metrics through
// b.ReportMetric, so `go test -bench=. -benchmem` prints the reproduced
// series next to wall-clock compile+run time:
//
//	BenchmarkSec51Smvp          — §5.1 case study (check ratio, speedups)
//	BenchmarkFig10LoadReduction — Fig. 10 (per-benchmark load reduction / speedup)
//	BenchmarkFig11Misspeculation— Fig. 11 (check ratio, mis-speculation ratio)
//	BenchmarkFig12Potential     — Fig. 12 (reuse limit, aggressive bound)
//	BenchmarkHeuristicVsProfile — §5.2 (heuristic rules vs alias profile)
//	BenchmarkAblation*          — design-choice ablations from DESIGN.md
//	BenchmarkPipeline*          — compiler throughput on the workload suite

// BenchmarkSec51Smvp regenerates the §5.1 equake/smvp case study.
// Paper shape: ~40% of loads become checks; speculative speedup sits
// between the base and the manually tuned (no-check) bound.
func BenchmarkSec51Smvp(b *testing.B) {
	var s experiments.Smvp
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.RunSmvpCtx(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.ChecksPerLoad*100, "checks/loads_%")
	b.ReportMetric(s.Speedup*100, "speedup_%")
	b.ReportMetric(s.ManualSpeedup*100, "manual_bound_%")
}

// benchRows runs the full workload sweep once per iteration and reports a
// metric per benchmark.
func benchRows(b *testing.B, metric func(experiments.Row) (string, float64)) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAllCtx(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name, v := metric(r)
		b.ReportMetric(v, r.Name+"_"+name)
	}
}

// BenchmarkFig10LoadReduction regenerates Fig. 10: dynamic-load reduction
// and speedup of speculative register promotion per benchmark.
// Paper shape: art, ammp, equake, mcf, twolf reduce loads noticeably;
// gzip/vpr/bzip2 barely move; load reduction does not translate 1:1 into
// speedup.
func BenchmarkFig10LoadReduction(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "loadred_%", r.LoadReduction() * 100
	})
}

// BenchmarkFig10Speedup reports Fig. 10's execution-time series.
func BenchmarkFig10Speedup(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "speedup_%", r.Speedup() * 100
	})
}

// BenchmarkFig11Misspeculation regenerates Fig. 11: percentage of check
// loads over loads retired and the mis-speculation ratio.
// Paper shape: miss ratios are small everywhere; gzip has the largest
// ratio on a negligible check count.
func BenchmarkFig11Misspeculation(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "missratio_%", r.MissRatio() * 100
	})
}

// BenchmarkFig11CheckRatio reports the companion check-load series.
func BenchmarkFig11CheckRatio(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "checkratio_%", r.CheckRatio() * 100
	})
}

// BenchmarkFig12Potential regenerates Fig. 12: the simulation-based
// load-reuse limit per benchmark. Paper shape: the limit upper-bounds and
// correlates with the achieved reduction (gzip's low potential predicts
// its negligible gain).
func BenchmarkFig12Potential(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "reuselimit_%", r.ReusePotential * 100
	})
}

// BenchmarkFig12Aggressive reports Fig. 12's second method: aggressive
// register promotion ignoring all aliases.
func BenchmarkFig12Aggressive(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "aggressive_%", r.AggressiveReduction * 100
	})
}

// BenchmarkHeuristicVsProfile regenerates the §5.2 comparison: load
// reduction of the heuristic-rules variant. Paper shape: comparable to
// the profile-guided version.
func BenchmarkHeuristicVsProfile(b *testing.B) {
	benchRows(b, func(r experiments.Row) (string, float64) {
		return "heur_loadred_%", r.HeurLoadReduction() * 100
	})
}

// ablationCycles measures the ref-input cycle count of one configuration
// of one workload.
func ablationCycles(b *testing.B, name string, cfg repro.Config) float64 {
	b.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	cfg.ProfileArgs = w.ProfileArgs
	var cycles int64
	for i := 0; i < b.N; i++ {
		c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.RunCtx(context.Background(), w.RefArgs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Counters.Cycles
	}
	return float64(cycles)
}

// BenchmarkAblationDataSpec: equake with and without data speculation
// (the headline delta of the paper).
func BenchmarkAblationDataSpec(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  repro.Config
	}{
		{"full", repro.Config{Spec: repro.SpecProfile}},
		{"nodata", repro.Config{Spec: repro.SpecOff}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(ablationCycles(b, "equake", c.cfg), "cycles")
		})
	}
}

// BenchmarkAblationControlSpec: control speculation on/off (it enables
// while-loop invariant hoisting, §4.2's anticipation discussion).
func BenchmarkAblationControlSpec(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  repro.Config
	}{
		{"on", repro.Config{Spec: repro.SpecProfile}},
		{"off", repro.Config{Spec: repro.SpecProfile, NoControlSpec: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(ablationCycles(b, "equake", c.cfg), "cycles")
		})
	}
}

// BenchmarkAblationLoadsOnly: register promotion without arithmetic PRE.
func BenchmarkAblationLoadsOnly(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  repro.Config
	}{
		{"witharith", repro.Config{Spec: repro.SpecProfile}},
		{"loadsonly", repro.Config{Spec: repro.SpecProfile, NoArith: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(ablationCycles(b, "mcf", c.cfg), "cycles")
		})
	}
}

// BenchmarkAblationALATSize sweeps ALAT capacity: a small ALAT evicts
// entries and turns successful checks into failed ones.
func BenchmarkAblationALATSize(b *testing.B) {
	w, _ := workloads.ByName("equake")
	for _, size := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
			cfg.Machine = machine.Defaults()
			cfg.Machine.ALATSize = size
			var failed int64
			for i := 0; i < b.N; i++ {
				c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.RunCtx(context.Background(), w.RefArgs)
				if err != nil {
					b.Fatal(err)
				}
				failed = res.Counters.FailedChecks
			}
			b.ReportMetric(float64(failed), "failedchecks")
		})
	}
}

// BenchmarkPipelineCompile measures compiler throughput (parse through
// codegen with profiling and full speculation) over the workload suite.
func BenchmarkPipelineCompile(b *testing.B) {
	b.ReportAllocs()
	ws := workloads.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ws[i%len(ws)]
		if _, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileProfile measures the allocation profile of the
// optimizing compile path (every workload, profile-guided speculation)
// and of the warm frontend-cache path (clone-dominated), and emits
// BENCH_compile.json so CI can guard against allocation regressions the
// same way BENCH_machine.json guards sweep speedups. Each iteration
// runs both legs once per pass, over benchPasses interleaved passes,
// and every figure written is the median of its passes, so that one
// noisy pass (CI runs -benchtime 1x) does not move a gated number.
func BenchmarkCompileProfile(b *testing.B) {
	b.ReportAllocs()
	ws := workloads.All()
	compile := func(w workloads.Workload, cfg repro.Config) {
		if _, err := repro.CompileCtx(context.Background(), w.Src, cfg); err != nil {
			b.Fatal(err)
		}
	}
	profiled := func(w workloads.Workload) repro.Config {
		return repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	}
	// warm every cache first so steady-state compiles are measured
	for _, w := range ws {
		compile(w, profiled(w))
	}
	// warm-cache compile with optimization off: parse+lower is served by
	// a deep IR clone, so this approximates the clone cost itself
	equake, _ := workloads.ByName("equake")
	cloneCfg := repro.Config{OptimizeOff: true}
	compile(equake, cloneCfg)
	const cloneIters = 16 // clone-leg compiles per pass
	// one sample per pass
	var compileNs, allocs, cloneNs []float64
	for i := 0; i < b.N; i++ {
		compileNs, allocs, cloneNs = nil, nil, nil
		for pass := 0; pass < benchPasses; pass++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for _, w := range ws {
				compile(w, profiled(w))
			}
			compileNs = append(compileNs, float64(time.Since(start).Nanoseconds())/float64(len(ws)))
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(ws)))

			start = time.Now()
			for j := 0; j < cloneIters; j++ {
				compile(equake, cloneCfg)
			}
			cloneNs = append(cloneNs, float64(time.Since(start).Nanoseconds())/cloneIters)
		}
	}

	allocsPer := median(allocs)
	b.ReportMetric(allocsPer, "allocs/compile")
	out := map[string]any{
		"benchmark":          "CompileProfile",
		"workloads":          len(ws),
		"passes":             benchPasses,
		"allocs_per_compile": allocsPer,
		"ns_per_compile":     median(compileNs),
		"clone_ns":           median(cloneNs),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_compile.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// sweepOnce compiles every workload once. sweepWorkers bounds how many
// workloads compile concurrently and is also handed to each compilation
// as its per-function worker bound (so 1 is the fully serial engine and
// 0 saturates every core at both tiers).
func sweepOnce(ws []workloads.Workload, sweepWorkers int) error {
	return par.Each(sweepWorkers, len(ws), func(i int) error {
		w := ws[i]
		cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: sweepWorkers}
		_, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		return err
	})
}

// BenchmarkPipelineSerial is the Workers=1 oracle twin of
// BenchmarkPipelineParallel: the whole workload suite compiled strictly
// serially. The compiles/s gap between the two benchmarks is the
// wall-clock win of the parallel pipeline on this machine.
func BenchmarkPipelineSerial(b *testing.B) {
	ws := workloads.All()
	if err := sweepOnce(ws, 1); err != nil { // warm the frontend cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweepOnce(ws, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ws)*b.N)/b.Elapsed().Seconds(), "compiles/s")
}

// BenchmarkPipelineParallel compiles the whole workload suite with the
// parallel pipeline (workload-level fan-out plus per-function parallelism
// inside every compile) and reports compiles/s and the speedup over a
// serial pass measured on the same machine. On a single-core runner the
// speedup degenerates to ~1x by construction.
func BenchmarkPipelineParallel(b *testing.B) {
	ws := workloads.All()
	if err := sweepOnce(ws, 0); err != nil { // warm the frontend cache
		b.Fatal(err)
	}
	serialStart := time.Now()
	if err := sweepOnce(ws, 1); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweepOnce(ws, 0); err != nil {
			b.Fatal(err)
		}
	}
	perPass := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(len(ws)*b.N)/b.Elapsed().Seconds(), "compiles/s")
	if perPass > 0 {
		b.ReportMetric(serial.Seconds()/perPass.Seconds(), "speedup_vs_serial")
	}
}

// BenchmarkFrontendCache measures what the compilation cache is worth: a
// cold parse+lower per compile versus a cache hit handing out a deep
// clone.
func BenchmarkFrontendCache(b *testing.B) {
	w, _ := workloads.ByName("equake")
	cfg := repro.Config{OptimizeOff: true}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			repro.ResetCaches()
			if _, err := repro.CompileCtx(context.Background(), w.Src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := repro.CompileCtx(context.Background(), w.Src, cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repro.CompileCtx(context.Background(), w.Src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMExecution measures VM throughput on the optimized equake
// kernel.
func BenchmarkVMExecution(b *testing.B) {
	w, _ := workloads.ByName("equake")
	c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunCtx(context.Background(), w.RefArgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScheduling measures the instruction-scheduling client
// (paper Fig. 3) under the pipelined timing model: latency-driven list
// scheduling overlaps load latency with independent work.
func BenchmarkAblationScheduling(b *testing.B) {
	w, _ := workloads.ByName("equake")
	pipelined := machine.Defaults()
	pipelined.Pipelined = true
	for _, c := range []struct {
		name string
		cfg  repro.Config
	}{
		{"unscheduled", repro.Config{Spec: repro.SpecProfile, Machine: pipelined}},
		{"scheduled", repro.Config{Spec: repro.SpecProfile, Schedule: true, Machine: pipelined}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.ProfileArgs = w.ProfileArgs
			var cycles int64
			for i := 0; i < b.N; i++ {
				comp, err := repro.CompileCtx(context.Background(), w.Src, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := comp.RunCtx(context.Background(), w.RefArgs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Counters.Cycles
			}
			b.ReportMetric(float64(cycles), "pipelined_cycles")
		})
	}
}

// BenchmarkInputSensitivity regenerates the input-sensitivity table
// (training input vs reference input as the profile source). Shape: the
// mismatched profile mis-speculates on the rare aliasing the training run
// never saw; the matched profile either avoids the promotion or never
// fails its checks — and outputs are identical either way.
func BenchmarkInputSensitivity(b *testing.B) {
	var rows []experiments.Sensitivity
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSensitivityCtx(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MismatchFailed), r.Name+"_mismatch_failed")
		b.ReportMetric(float64(r.MatchedFailed), r.Name+"_matched_failed")
	}
}
