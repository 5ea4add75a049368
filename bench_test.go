package repro_test

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/workloads"
)

// The benchmarks in this file measure the compiler, not the paper's
// figures: those are pinned exactly by BENCH_paper.json (`go run
// ./cmd/experiments -exp all -json`, checked by paper_test.go), and the
// ablations print through `go run ./cmd/experiments -exp ablation`. The
// machine's benchmarks are in bench_machine_test.go.
//
//	BenchmarkPipeline*          — compiler throughput on the workload suite
//	BenchmarkCompileProfile     — the compile ledger (BENCH_compile.json)
//	BenchmarkFrontendCache      — a cold parse+lower vs a cache hit
//	BenchmarkVMExecution        — VM throughput on optimized equake
//	BenchmarkAblationScheduling — pipelined cycles with and without the scheduler

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
// and of the warm frontend-cache path (clone-dominated), counts the
// build reuse and speculative recordings of a fixed cold sequence
// (reuseLedger, speculationLedger), and emits BENCH_compile.json so CI
// can guard against allocation regressions the same way
// BENCH_machine.json guards sweep speedups. Each iteration
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
	compiled, reused := reuseLedger(b)
	used, discarded := speculationLedger(b)
	out := map[string]any{
		"benchmark":              "CompileProfile",
		"workloads":              len(ws),
		"passes":                 benchPasses,
		"allocs_per_compile":     allocsPer,
		"ns_per_compile":         median(compileNs),
		"clone_ns":               median(cloneNs),
		"builds_compiled":        compiled,
		"builds_reused":          reused,
		"spec_records_used":      used,
		"spec_records_discarded": discarded,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_compile.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// reuseLedger serves a fixed seeded sequence of cold builds, 8 training
// inputs per workload drawn as specbench's eval-cold stream draws them,
// serially from an empty cache, and returns how many ran the full
// pipeline and how many reused an earlier build. Both counts are
// host-independent: benchguard gates them exactly.
func reuseLedger(b *testing.B) (compiled, reused uint64) {
	repro.ResetCaches()
	rng := rand.New(rand.NewPCG(29, 1))
	c0, r0 := repro.BuildsCompiled(), repro.BuildsReused()
	for _, w := range workloads.All() {
		for i := int64(0); i < 8; i++ {
			cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: drawTrain(rng, w.ProfileArgs, i), Workers: 1}
			if _, err := repro.BuildCtx(context.Background(), w.Src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	return repro.BuildsCompiled() - c0, repro.BuildsReused() - r0
}

// speculationLedger serves reuseLedger's sequence of training inputs
// as evaluations, each on a fresh measurement input drawn the same way,
// serially from an empty cache and on at least two procs, and returns
// how many recordings on a guessed build were used and how many
// discarded. Both counts are host-independent: benchguard gates them
// exactly.
func speculationLedger(b *testing.B) (used, discarded uint64) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	repro.ResetCaches()
	rng, argRng := rand.New(rand.NewPCG(29, 1)), rand.New(rand.NewPCG(29, 2))
	u0, d0 := repro.SpeculativeRecords()
	for _, w := range workloads.All() {
		for i := int64(0); i < 8; i++ {
			cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: drawTrain(rng, w.ProfileArgs, i)}
			if _, _, err := repro.BuildAndRunCtx(context.Background(), w.Src, cfg, drawTrain(argRng, w.RefArgs, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	u1, d1 := repro.SpeculativeRecords()
	return u1 - u0, d1 - d0
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
