// Command benchguard is the CI perf gate for the wall-clock benchmark
// artifacts. It compares freshly generated files against their
// committed baselines and exits non-zero on a regression beyond the
// allowed fraction:
//
//   - BENCH_machine.json: the per-grid replay-sweep speedups must not
//     DROP by more than the margin. A speedup is the cost of one
//     machine.Run per config (K records and K one-lane replays, what a
//     caller without batching pays) over one Record plus one
//     ReplayBatch of the whole grid. The direct side pays Record K
//     times, so a slower Record raises a speedup; record_ns, the cost
//     of one Record, must therefore not RISE by more than the margin,
//     and neither may walk_ns, one warm ReplayBatch of the grid's
//     pipelined half (the scoreboard walk alone, which the replay leg
//     dilutes with a Record), or walk_all_ns, the same walk summed over
//     every paper kernel, or record_all_ns, one Record plus its serial
//     replay summed over every paper kernel (the machine's share of a
//     cold evaluation);
//   - BENCH_compile.json: the compile path's allocs_per_compile and
//     ns_per_compile must not RISE by more than the margin, and
//     builds_compiled and builds_reused, the full pipeline runs and the
//     reused builds of a fixed seeded sequence of cold builds, must
//     equal their baselines exactly (margin 0): they count, not time,
//     so any change is a change in what the build cache reuses.
//
// CI benchmark numbers are noisy (BENCH_machine.json's figures are
// medians of five interleaved passes), so the default margin is
// deliberately wide (25%); the guarded quantities sit far inside it on
// any runner, and only a real algorithmic regression (e.g. the batched
// replay walk falling back to per-config replays or to per-instruction
// walking, or a per-site allocation sneaking into the flag-assignment
// loop) moves them that much. The deterministic artifact BENCH_harden.json is not gated here:
// CI diffs it byte for byte.
//
// Usage:
//
//	benchguard -baseline BENCH_machine.baseline.json -fresh BENCH_machine.json \
//	    [-compile-baseline BENCH_compile.baseline.json -compile-fresh BENCH_compile.json] \
//	    [-max-regress 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// gate is one benchmark file the guard compares: where the baseline and
// fresh copies live, how to extract the guarded quantities, and which
// direction is better.
type gate struct {
	baseline, fresh *string
	load            func(path string) (map[string]float64, error)
	higherIsBetter  bool
	// exact gates host-independent counts: any difference from the
	// baseline, either way, fails, whatever the margin
	exact bool
}

func main() {
	machineBase := flag.String("baseline", "", "committed BENCH_machine.json to compare against (empty = skip the machine guards)")
	machineFresh := flag.String("fresh", "BENCH_machine.json", "freshly generated BENCH_machine.json")
	compileBase := flag.String("compile-baseline", "", "committed BENCH_compile.json to compare against (empty = skip the compile guard)")
	compileFresh := flag.String("compile-fresh", "BENCH_compile.json", "freshly generated BENCH_compile.json")
	gates := []gate{
		{baseline: machineBase, fresh: machineFresh, load: loadSpeedups, higherIsBetter: true},
		{baseline: machineBase, fresh: machineFresh, load: loadScalars(machineScalars...)},
		{baseline: compileBase, fresh: compileFresh, load: loadScalars("allocs_per_compile", "ns_per_compile")},
		{baseline: compileBase, fresh: compileFresh, load: loadScalars(compileCounts...), exact: true},
	}
	maxRegress := flag.Float64("max-regress", 0.25, "maximum allowed fractional regression (0.25 = 25%)")
	flag.Parse()

	ran, failed := false, false
	for _, g := range gates {
		if *g.baseline == "" {
			continue
		}
		ran = true
		ok, err := guard(os.Stdout, g, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		failed = failed || !ok
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline or -compile-baseline is required")
		os.Exit(2)
	}
	if failed {
		fmt.Println("benchguard: benchmark regressed beyond the allowed margin")
		os.Exit(1)
	}
}

// guard compares every baseline quantity of g with its fresh value and
// prints one line per quantity to w. A quantity fails when it is missing
// from the fresh file or moved the wrong way by more than margin:
// below baseline·(1−margin) when higher is better, above
// baseline·(1+margin) when lower is. An exact gate's quantity fails on
// any difference.
func guard(w io.Writer, g gate, margin float64) (bool, error) {
	base, err := g.load(*g.baseline)
	if err != nil {
		return false, err
	}
	fresh, err := g.load(*g.fresh)
	if err != nil {
		return false, err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	for _, key := range keys {
		baseV := base[key]
		freshV, found := fresh[key]
		if !found {
			fmt.Fprintf(w, "FAIL %-18s baseline %.3f but missing from fresh results\n", key, baseV)
			ok = false
			continue
		}
		limit, bad := baseV*(1+margin), freshV > baseV*(1+margin)
		switch {
		case g.exact:
			limit, bad = baseV, freshV != baseV
		case g.higherIsBetter:
			limit, bad = baseV*(1-margin), freshV < baseV*(1-margin)
		}
		status := "ok"
		if bad {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%-4s %-18s baseline %14.3f  fresh %14.3f  limit %14.3f\n",
			status, key, baseV, freshV, limit)
	}
	return ok, nil
}

// loadSpeedups extracts the per-grid speedups from a BENCH_machine.json
// file (the "speedup" field of every object-valued top-level entry,
// e.g. the "serial" and "mixed" grids).
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

// compileCounts are BENCH_compile.json's exactly gated counts.
var compileCounts = []string{"builds_compiled", "builds_reused"}

// machineScalars are BENCH_machine.json's gated costs.
var machineScalars = []string{"record_ns", "record_all_ns", "walk_ns", "walk_all_ns"}

// loadScalars returns a loader for the named top-level numeric fields
// of a benchmark file (e.g. BENCH_compile.json's allocs_per_compile and
// ns_per_compile, or BENCH_machine.json's machineScalars). Every key must be present and positive.
func loadScalars(keys ...string) func(path string) (map[string]float64, error) {
	return func(path string) (map[string]float64, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[string]float64{}
		for _, key := range keys {
			if v, ok := raw[key].(float64); ok && v > 0 {
				out[key] = v
			}
		}
		if len(out) != len(keys) {
			return nil, fmt.Errorf("%s: missing benchmark fields (want %v)", path, keys)
		}
		return out, nil
	}
}
