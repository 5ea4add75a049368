// Command benchguard is the CI perf gate. It compares two freshly
// generated benchmark artifacts against their committed baselines and
// exits non-zero on a regression beyond the allowed fraction:
//
//   - BENCH_machine.json: the per-grid replay-sweep speedups must not
//     DROP by more than the margin. A speedup is the cost of one
//     machine.Run per config (K records and K one-lane replays, what a
//     caller without batching pays) over one Record plus one
//     ReplayBatch of the whole grid;
//   - BENCH_compile.json: the compile path's allocs_per_compile and
//     ns_per_compile must not RISE by more than the margin;
//   - BENCH_fleet.json: the cold and warm 1-vs-2-worker fleet sweep
//     speedups must not DROP by more than the margin. Fleet speedups
//     are core-count-bound (the file records "cores"), so the gate
//     only compares runs against a baseline generated on the same CI
//     runner class;
//   - BENCH_adaptive.json: the adaptive tiering run's end-to-end
//     speedups over the fixed-aggressive and fixed-conservative
//     policies must not DROP by more than the margin. These are
//     deterministic simulated-cycle ratios, not wall clock, so any
//     drift at all is a behaviour change worth looking at;
//   - BENCH_harden.json: the per-(workload, policy) leaky-over-hardened
//     cycle ratios must not DROP by more than the margin — a drop means
//     the mitigation pass got more expensive (more fences, or fences
//     where checks used to hoist). Also deterministic simulated-cycle
//     ratios.
//
// Single-pass CI benchmark numbers are noisy, so the default margin is
// deliberately wide (25%); the guarded quantities sit far inside it on
// any runner, and only a real algorithmic regression (e.g. the batched
// replay walk falling back to per-config replays, or a per-site
// allocation sneaking into the flag-assignment loop) moves them that
// much.
//
// Usage:
//
//	benchguard -baseline BENCH_machine.baseline.json -fresh BENCH_machine.json \
//	    [-compile-baseline BENCH_compile.baseline.json -compile-fresh BENCH_compile.json] \
//	    [-fleet-baseline BENCH_fleet.baseline.json -fleet-fresh BENCH_fleet.json] \
//	    [-adaptive-baseline BENCH_adaptive.baseline.json -adaptive-fresh BENCH_adaptive.json] \
//	    [-harden-baseline BENCH_harden.baseline.json -harden-fresh BENCH_harden.json] \
//	    [-max-regress 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_machine.json to compare against")
	freshPath := flag.String("fresh", "BENCH_machine.json", "freshly generated BENCH_machine.json")
	compileBaselinePath := flag.String("compile-baseline", "", "committed BENCH_compile.json to compare against (empty = skip the compile guard)")
	compileFreshPath := flag.String("compile-fresh", "BENCH_compile.json", "freshly generated BENCH_compile.json")
	fleetBaselinePath := flag.String("fleet-baseline", "", "committed BENCH_fleet.json to compare against (empty = skip the fleet guard)")
	fleetFreshPath := flag.String("fleet-fresh", "BENCH_fleet.json", "freshly generated BENCH_fleet.json")
	adaptiveBaselinePath := flag.String("adaptive-baseline", "", "committed BENCH_adaptive.json to compare against (empty = skip the adaptive guard)")
	adaptiveFreshPath := flag.String("adaptive-fresh", "BENCH_adaptive.json", "freshly generated BENCH_adaptive.json")
	hardenBaselinePath := flag.String("harden-baseline", "", "committed BENCH_harden.json to compare against (empty = skip the harden guard)")
	hardenFreshPath := flag.String("harden-fresh", "BENCH_harden.json", "freshly generated BENCH_harden.json")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum allowed fractional regression (0.25 = 25%)")
	flag.Parse()
	if *baselinePath == "" && *compileBaselinePath == "" && *fleetBaselinePath == "" && *adaptiveBaselinePath == "" && *hardenBaselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline, -compile-baseline, -fleet-baseline, -adaptive-baseline, or -harden-baseline is required")
		os.Exit(2)
	}

	failed := false
	if *baselinePath != "" {
		ok, err := guardSpeedups(*baselinePath, *freshPath, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if *compileBaselinePath != "" {
		ok, err := guardCompile(*compileBaselinePath, *compileFreshPath, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if *fleetBaselinePath != "" {
		// BENCH_fleet.json has the same per-grid shape as
		// BENCH_machine.json ("cold"/"warm" objects with a "speedup"),
		// so the sweep guard applies verbatim: higher is better, a drop
		// beyond the margin fails.
		ok, err := guardSpeedups(*fleetBaselinePath, *fleetFreshPath, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if *adaptiveBaselinePath != "" {
		// BENCH_adaptive.json carries its headline ratios in the same
		// object-with-"speedup" shape ("adaptive_vs_aggressive" /
		// "adaptive_vs_conservative"), so the sweep guard applies:
		// higher is better, a drop beyond the margin fails.
		ok, err := guardSpeedups(*adaptiveBaselinePath, *adaptiveFreshPath, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if *hardenBaselinePath != "" {
		// BENCH_harden.json's per-(workload, policy) cells carry the
		// leaky-over-hardened cycle ratio in the same "speedup" shape, so
		// the sweep guard applies: a drop means hardening got costlier.
		ok, err := guardSpeedups(*hardenBaselinePath, *hardenFreshPath, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if failed {
		fmt.Println("benchguard: benchmark regressed beyond the allowed margin")
		os.Exit(1)
	}
}

// guardSpeedups fails any grid whose fresh replay-sweep speedup fell
// below baseline·(1−margin). Higher is better here.
func guardSpeedups(baselinePath, freshPath string, margin float64) (bool, error) {
	base, err := loadSpeedups(baselinePath)
	if err != nil {
		return false, err
	}
	fresh, err := loadSpeedups(freshPath)
	if err != nil {
		return false, err
	}
	ok := true
	for grid, baseSpeedup := range base {
		freshSpeedup, found := fresh[grid]
		if !found {
			fmt.Printf("FAIL %-8s baseline %.3fx but grid missing from fresh results\n", grid, baseSpeedup)
			ok = false
			continue
		}
		floor := baseSpeedup * (1 - margin)
		status := "ok"
		if freshSpeedup < floor {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%-4s %-8s baseline %.3fx  fresh %.3fx  floor %.3fx\n",
			status, grid, baseSpeedup, freshSpeedup, floor)
	}
	return ok, nil
}

// compileGuardKeys are the BENCH_compile.json quantities the gate
// watches. Lower is better for both, so the guard inverts: a fresh
// value above baseline·(1+margin) fails.
var compileGuardKeys = []string{"allocs_per_compile", "ns_per_compile"}

func guardCompile(baselinePath, freshPath string, margin float64) (bool, error) {
	base, err := loadCompileStats(baselinePath)
	if err != nil {
		return false, err
	}
	fresh, err := loadCompileStats(freshPath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, key := range compileGuardKeys {
		baseV, freshV := base[key], fresh[key]
		if freshV == 0 {
			fmt.Printf("FAIL %-18s baseline %.1f but value missing from fresh results\n", key, baseV)
			ok = false
			continue
		}
		ceiling := baseV * (1 + margin)
		status := "ok"
		if freshV > ceiling {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%-4s %-18s baseline %12.1f  fresh %12.1f  ceiling %12.1f\n",
			status, key, baseV, freshV, ceiling)
	}
	return ok, nil
}

// loadSpeedups extracts the per-grid replay-sweep speedups from a
// BENCH_machine.json file (the "speedup" field of every object-valued
// top-level entry, i.e. the "serial" and "mixed" grids).
func loadSpeedups(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for key, v := range raw {
		grid, ok := v.(map[string]any)
		if !ok {
			continue
		}
		if s, ok := grid["speedup"].(float64); ok && s > 0 {
			out[key] = s
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no per-grid speedups found", path)
	}
	return out, nil
}

// loadCompileStats reads the guarded scalar fields of a
// BENCH_compile.json file.
func loadCompileStats(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, key := range compileGuardKeys {
		if v, ok := raw[key].(float64); ok && v > 0 {
			out[key] = v
		}
	}
	if len(out) != len(compileGuardKeys) {
		return nil, fmt.Errorf("%s: missing compile stats (want %v)", path, compileGuardKeys)
	}
	return out, nil
}
