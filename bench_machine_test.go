package repro_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The machine-engine benchmarks: an unbatched caller vs record-once-
// and-replay-the-grid for a RunSensitivity-style multi-config sweep.
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
	c, err := repro.Compile(w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		b.Fatal(err)
	}
	return c.Code, w.RefArgs
}

// BenchmarkMachineSweep times one sweep grid per iteration, as one
// machine.Run per config ("direct": what a caller without batching
// pays, K records and K one-lane replays) and as one Record plus one
// ReplayBatch ("replay"), and emits BENCH_machine.json with the
// per-sweep costs and speedups. Two grids are measured:
// "serial" is the 12-config serial-model grid — the RunSensitivity
// shape, where replay takes the O(events) aggregate path — and "mixed"
// is the full 24-config MachineSweepConfigs grid whose pipelined half
// needs the per-instruction scoreboard walk.
func BenchmarkMachineSweep(b *testing.B) {
	code, args := sweepTarget(b)
	all := experiments.MachineSweepConfigs()
	var serial []machine.Config
	for _, cfg := range all {
		if !cfg.Pipelined {
			serial = append(serial, cfg)
		}
	}

	grids := []struct {
		name string
		cfgs []machine.Config
	}{{"serial", serial}, {"mixed", all}}
	speedups := map[string]float64{}
	out := map[string]any{
		"benchmark": "MachineSweep",
		"workload":  "equake",
	}
	for _, grid := range grids {
		var directNs, replayNs float64
		b.Run(grid.name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range grid.cfgs {
					if _, err := machine.Run(code, args, cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			directNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		b.Run(grid.name+"/replay", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// recording is paid inside the timed region: this is the
				// honest cold-sweep cost, not the cached steady state
				tr, err := machine.Record(code, args, machine.Config{})
				if err != nil {
					b.Fatal(err)
				}
				// the batched walk re-times every pipelined config of the
				// grid in one pass over the trace
				if _, err := machine.ReplayBatch(code, tr, grid.cfgs); err != nil {
					b.Fatal(err)
				}
			}
			replayNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		if directNs > 0 && replayNs > 0 {
			speedups[grid.name] = directNs / replayNs
		}
		out[grid.name] = map[string]any{
			"configs":             len(grid.cfgs),
			"direct_ns_per_sweep": directNs,
			"replay_ns_per_sweep": replayNs,
			"speedup":             speedups[grid.name],
		}
	}

	// the headline number is the RunSensitivity-shaped serial grid; the
	// mixed grid is reported alongside
	b.ReportMetric(speedups["serial"], "serial_sweep_speedup")
	b.ReportMetric(speedups["mixed"], "mixed_sweep_speedup")
	out["speedup"] = speedups["serial"]
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_machine.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEvaluate measures the public sweep API end to end (trace
// cache included): the first call records, the rest replay.
func BenchmarkEvaluate(b *testing.B) {
	w, ok := workloads.ByName("equake")
	if !ok {
		b.Fatal("equake not registered")
	}
	c, err := repro.Compile(w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := experiments.MachineSweepConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(w.RefArgs, cfgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReuseLimitSharded compares the serial Fig. 12 reuse walk
// against the sharded one.
func BenchmarkReuseLimitSharded(b *testing.B) {
	w, ok := workloads.ByName("equake")
	if !ok {
		b.Fatal("equake not registered")
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"sharded", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.ReuseLimitWorkers(w.Src, w.RefArgs, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
