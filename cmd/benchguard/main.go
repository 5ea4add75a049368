// Command benchguard is the CI gate for the committed benchmark files.
// CI regenerates every BENCH_*.json file in the working directory after
// copying the committed ones aside; benchguard then checks each row of
// one table against the committed copy:
//
//   - a row with a dotted JSON path (e.g. "serial.speedup") gates one
//     number: "higher" fails when it drops below baseline·(1−margin),
//     "lower" when it rises above baseline·(1+margin), and "exact" on
//     any difference;
//   - a row without a path compares the whole file byte for byte.
//
// Wall-clock numbers are noisy (BENCH_machine.json's and
// BENCH_compile.json's figures are medians of five interleaved passes),
// so their margin is deliberately wide (25%): only a real algorithmic
// regression, such as the batched replay walk falling back to
// per-config replays or a per-site allocation in the flag-assignment
// loop, moves them that much. Counts that do not depend on the host, and
// the paper and hardening ledgers, are exact.
//
// Usage:
//
//	benchguard -baseline-dir DIR
//
// It exits 1 when a row regresses and 2 when a file cannot be read or a
// path does not resolve to a number.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The directions a row can gate.
const (
	higher = "higher"
	lower  = "lower"
	exact  = "exact"
)

// row is one gated quantity: a dotted JSON path in a file (empty: the
// whole file, byte for byte), the direction that is better, and the
// fraction it may move the other way.
type row struct {
	file, path, better string
	margin             float64
}

var table = []row{
	// direct-vs-replay sweep speedups of the two grids (a speedup is K
	// machine.Run calls over one Record plus one ReplayBatch of the grid)
	{"BENCH_machine.json", "serial.speedup", higher, 0.25},
	{"BENCH_machine.json", "mixed.speedup", higher, 0.25},
	// one equake Record, and one Record plus its serial replay summed
	// over the paper kernels: a slower Record raises the speedups, so it
	// is gated on its own
	{"BENCH_machine.json", "record_ns", lower, 0.25},
	{"BENCH_machine.json", "record_all_ns", lower, 0.25},
	// one warm pipelined walk, on equake and summed over the kernels
	{"BENCH_machine.json", "walk_ns", lower, 0.25},
	{"BENCH_machine.json", "walk_all_ns", lower, 0.25},
	{"BENCH_machine.json", "trace_bytes_all", exact, 0},
	{"BENCH_compile.json", "allocs_per_compile", lower, 0.25},
	{"BENCH_compile.json", "ns_per_compile", lower, 0.25},
	// full pipeline runs and reused builds of a fixed seeded sequence of
	// cold builds: any change is a change in what the build cache reuses
	{"BENCH_compile.json", "builds_compiled", exact, 0},
	{"BENCH_compile.json", "builds_reused", exact, 0},
	// recordings on a guessed build that the same sequence, served as
	// evaluations, used and discarded: any change is a change in what
	// the evaluate path guesses
	{"BENCH_compile.json", "spec_records_used", exact, 0},
	{"BENCH_compile.json", "spec_records_discarded", exact, 0},
	{"BENCH_harden.json", "", exact, 0},
	{"BENCH_paper.json", "", exact, 0},
}

func main() {
	baseDir := flag.String("baseline-dir", "", "directory holding the committed copies of the BENCH_*.json files; the fresh ones are read from the working directory")
	flag.Parse()
	if *baseDir == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline-dir is required")
		os.Exit(2)
	}
	ok, err := guard(os.Stdout, table, *baseDir, ".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Println("benchguard: benchmark regressed beyond the allowed margin")
		os.Exit(1)
	}
}

// guard checks every row's fresh value (under freshDir) against its
// baseline (under baseDir), prints one line per row to w, and reports
// whether all of them pass.
func guard(w io.Writer, rows []row, baseDir, freshDir string) (bool, error) {
	ok := true
	for _, r := range rows {
		base, err := os.ReadFile(filepath.Join(baseDir, r.file))
		if err != nil {
			return false, err
		}
		fresh, err := os.ReadFile(filepath.Join(freshDir, r.file))
		if err != nil {
			return false, err
		}
		name := r.file + ":" + r.path
		if r.path == "" {
			status, verdict := "ok  ", "identical to the baseline"
			if !bytes.Equal(base, fresh) {
				status, verdict, ok = "FAIL", "differs from the baseline", false
			}
			fmt.Fprintf(w, "%s %-38s %s\n", status, r.file, verdict)
			continue
		}
		baseV, err := lookup(base, r)
		if err != nil {
			return false, fmt.Errorf("baseline %s: %w", name, err)
		}
		freshV, err := lookup(fresh, r)
		if err != nil {
			return false, fmt.Errorf("fresh %s: %w", name, err)
		}
		limit, bad := baseV, freshV != baseV
		switch r.better {
		case higher:
			limit = baseV * (1 - r.margin)
			bad = freshV < limit
		case lower:
			limit = baseV * (1 + r.margin)
			bad = freshV > limit
		}
		status := "ok  "
		if bad {
			status, ok = "FAIL", false
		}
		fmt.Fprintf(w, "%s %-38s baseline %14.3f  fresh %14.3f  limit %14.3f\n", status, name, baseV, freshV, limit)
	}
	return ok, nil
}

// lookup resolves r's dotted path in a JSON document to a number. A
// margin-gated quantity (a time, a ratio, a count of allocations) must
// also be positive: zero means the benchmark measured nothing.
func lookup(data []byte, r row) (float64, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, err
	}
	for _, key := range strings.Split(r.path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("no object holds %q", key)
		}
		if v, ok = obj[key]; !ok {
			return 0, fmt.Errorf("missing %q", key)
		}
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("not a number: %v", v)
	}
	if r.better != exact && f <= 0 {
		return 0, fmt.Errorf("not positive: %v", f)
	}
	return f, nil
}
