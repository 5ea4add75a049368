package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The machine-engine benchmarks: an unbatched caller vs record-once-
// and-replay-the-grid for a RunSensitivityCtx-style multi-config sweep.
// The claim is that an N-config sweep costs ~1 functional run + one
// batched re-timing, so the "replay" variant (which pays for its
// recording inside the timed region every iteration) should still beat
// "direct" — N independent machine.Run calls, each a Record plus a
// one-lane replay — by a wide margin. BenchmarkMachineSweep writes the
// measured numbers to BENCH_machine.json so CI can archive the perf
// trajectory.

// sweepTarget compiles the profile-guided equake kernel once (compile
// time must not pollute the sweep timings).
func sweepTarget(b *testing.B) (*machine.Program, []int64) {
	b.Helper()
	w, ok := workloads.ByName("equake")
	if !ok {
		b.Fatal("equake not registered")
	}
	return compileKernel(b, w), w.RefArgs
}

// compileKernel compiles one paper kernel profile-guided, trained on its
// profiling input.
func compileKernel(b *testing.B, w workloads.Workload) *machine.Program {
	b.Helper()
	c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		b.Fatal(err)
	}
	return c.Code
}

// BenchmarkMachineSweep times one sweep grid per leg, as one
// machine.Run per config ("direct": what a caller without batching
// pays, K records and K one-lane replays) and as one Record plus one
// ReplayBatch ("replay"), and emits BENCH_machine.json with the
// per-sweep costs and speedups, plus record_ns, the cost of one equake
// Record at the reference input, walk_ns, one warm ReplayBatch of the
// grid's pipelined half on a recorded trace: the pipelined walk alone,
// walk_all_ns, the same walk on every paper kernel at its reference
// input, summed, and record_all_ns, one Record plus its serial replay
// on every paper kernel at its reference input, summed: the machine's
// share of a cold evaluation. trace_bytes_all sums those kernels'
// Trace.Bytes. Two grids are measured: "serial" is the 12-config
// serial-model grid — the RunSensitivityCtx shape, where replay takes
// the O(events) aggregate path — and "mixed" is the full 24-config
// MachineSweepConfigs grid whose pipelined half needs the scoreboard
// walk. Each iteration runs every leg once per pass, over
// benchPasses interleaved passes, and every figure written is
// the median of its passes, so that one noisy pass (CI runs
// -benchtime 1x) does not move a gated number.
func BenchmarkMachineSweep(b *testing.B) {
	code, args := sweepTarget(b)
	all := experiments.MachineSweepConfigs()
	var serial, piped []machine.Config
	for _, cfg := range all {
		if cfg.Pipelined {
			piped = append(piped, cfg)
		} else {
			serial = append(serial, cfg)
		}
	}
	// the walk leg re-times a trace whose per-capacity ALAT walks are
	// already memoized, as on a warm /sweep
	warm, err := machine.Record(code, args, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := machine.ReplayBatch(code, warm, piped); err != nil {
		b.Fatal(err)
	}
	type kernelTrace struct {
		code  *machine.Program
		args  []int64
		trace *machine.Trace
	}
	var kernels []kernelTrace
	var traceBytes int64
	for _, w := range workloads.All() {
		kc := compileKernel(b, w)
		tr, err := machine.Record(kc, w.RefArgs, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := machine.ReplayBatch(kc, tr, piped); err != nil {
			b.Fatal(err)
		}
		kernels = append(kernels, kernelTrace{kc, w.RefArgs, tr})
		traceBytes += tr.Bytes()
	}

	direct := func(cfgs []machine.Config) func() error {
		return func() error {
			for _, cfg := range cfgs {
				if _, err := machine.Run(code, args, cfg, nil); err != nil {
					return err
				}
			}
			return nil
		}
	}
	replay := func(cfgs []machine.Config) func() error {
		return func() error {
			// recording is paid inside the timed region: this is the
			// honest cold-sweep cost, not the cached steady state
			tr, err := machine.Record(code, args, machine.Config{})
			if err != nil {
				return err
			}
			_, err = machine.ReplayBatch(code, tr, cfgs)
			return err
		}
	}
	// one functional run alone: what every cold evaluation pays before
	// any re-timing, and the part of "direct" that replay pays once. The
	// leg records several times so that one pass still averages over a
	// few garbage collections instead of timing one record
	const recordsPerOp = 10
	legs := []struct {
		name string
		ops  int // units of work per run, each timed as run time / ops
		run  func() error
	}{
		{"serial/direct", 1, direct(serial)},
		{"serial/replay", 1, replay(serial)},
		{"mixed/direct", 1, direct(all)},
		{"mixed/replay", 1, replay(all)},
		{"record", recordsPerOp, func() error {
			for j := 0; j < recordsPerOp; j++ {
				if _, err := machine.Record(code, args, machine.Config{}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"walk", 1, func() error {
			_, err := machine.ReplayBatch(code, warm, piped)
			return err
		}},
		{"record_all", 1, func() error {
			for _, kt := range kernels {
				tr, err := machine.Record(kt.code, kt.args, machine.Config{})
				if err != nil {
					return err
				}
				if _, err := machine.ReplayBatch(kt.code, tr, []machine.Config{{}}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"walk_all", 1, func() error {
			for _, kt := range kernels {
				if _, err := machine.ReplayBatch(kt.code, kt.trace, piped); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var ns map[string][]float64 // leg -> one sample per pass
	for i := 0; i < b.N; i++ {
		ns = map[string][]float64{}
		for pass := 0; pass < benchPasses; pass++ {
			for _, leg := range legs {
				start := time.Now()
				if err := leg.run(); err != nil {
					b.Fatalf("%s: %v", leg.name, err)
				}
				ns[leg.name] = append(ns[leg.name], float64(time.Since(start).Nanoseconds())/float64(leg.ops))
			}
		}
	}

	out := map[string]any{
		"benchmark":       "MachineSweep",
		"workload":        "equake",
		"passes":          benchPasses,
		"record_ns":       median(ns["record"]),
		"walk_ns":         median(ns["walk"]),
		"walk_all_ns":     median(ns["walk_all"]),
		"record_all_ns":   median(ns["record_all"]),
		"trace_bytes_all": traceBytes,
	}
	speedups := map[string]float64{}
	for _, grid := range []struct {
		name string
		cfgs []machine.Config
	}{{"serial", serial}, {"mixed", all}} {
		directNs, replayNs := ns[grid.name+"/direct"], ns[grid.name+"/replay"]
		ratios := make([]float64, len(directNs))
		for p := range ratios {
			ratios[p] = directNs[p] / replayNs[p]
		}
		speedups[grid.name] = median(ratios)
		out[grid.name] = map[string]any{
			"configs":             len(grid.cfgs),
			"direct_ns_per_sweep": median(directNs),
			"replay_ns_per_sweep": median(replayNs),
			"speedup":             speedups[grid.name],
		}
	}

	// the headline number is the RunSensitivityCtx-shaped serial grid; the
	// mixed grid is reported alongside
	b.ReportMetric(speedups["serial"], "serial_sweep_speedup")
	b.ReportMetric(speedups["mixed"], "mixed_sweep_speedup")
	b.ReportMetric(median(ns["walk"]), "walk_ns")
	b.ReportMetric(median(ns["walk_all"]), "walk_all_ns")
	b.ReportMetric(median(ns["record_all"]), "record_all_ns")
	out["speedup"] = speedups["serial"]
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_machine.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchPasses is how many interleaved passes BenchmarkMachineSweep and
// BenchmarkCompileProfile take the median of.
const benchPasses = 5

// median returns the median of xs (the mean of the middle two when
// their number is even), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// BenchmarkEvaluate measures the public sweep API end to end (trace
// cache included): the first call records, the rest replay.
func BenchmarkEvaluate(b *testing.B) {
	w, ok := workloads.ByName("equake")
	if !ok {
		b.Fatal("equake not registered")
	}
	c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := experiments.MachineSweepConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateCtx(context.Background(), w.RefArgs, cfgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
