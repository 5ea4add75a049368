// Command specbench is the end-to-end served benchmark of specd: it boots
// specd's real handler on loopback, drives one of four seeded traffic
// mixes against it from at most two client goroutines, checks every
// reply, and reports end-to-end metrics — or, with --trace 1, per-layer
// metrics from a replay of the same requests through a stage driver that
// times every layer call. See README.md for the workloads, the metrics
// and how to read the spans.
//
// Usage, from the repository root:
//
//	bash cmd/specbench/run.sh [flags]    build into .bench_build and run
//
//	--workload NAME  eval-warm, eval-cold, sweep-grid or serve-mix; empty
//	                 runs all four, each in a child process of its own
//	--seed N         seed of the request streams (default 1)
//	--seconds N      length of the measured window (default 20)
//	--trace 0|1      1 reports the per-layer metrics of the traced run in
//	                 place of the end-to-end ones
//	--spans FILE     where the traced run writes its spans (default
//	                 .bench_build/spans-<workload>.json)
//
// A single-workload run prints one "name value unit" line per metric and
// then, as its last line, a JSON object with the keys correct, attempted,
// failed and metrics. It exits non-zero if any reply was wrong.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cli"
)

func main() { cli.Main("specbench", run) }

func run() error {
	name := flag.String("workload", "", "workload to run (empty = all four, each in its own process)")
	seed := flag.Uint64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from the traced run")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	switch {
	case flag.NArg() != 0:
		return cli.Usagef("unexpected arguments: %v", flag.Args())
	case *seconds < 1:
		return cli.Usagef("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return cli.Usagef("--trace must be 0 or 1")
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		return cli.Usagef("unknown workload %q", *name)
	}
	if *trace == 1 && *spans == "" {
		*spans = filepath.Join(".bench_build", "spans-"+wl.name+".json")
	}
	rep, err := runWorkload(context.Background(), wl, defaultParams(*seed, *seconds, *trace == 1, *spans))
	if err != nil {
		return err
	}
	ms := rep.endToEnd
	if *trace == 1 {
		ms = rep.perLayer
	}
	rep.Metrics = ms.values
	for _, n := range ms.names {
		fmt.Printf("%-34s %16.6g %s\n", n, ms.values[n].Value, ms.values[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d requests failed or were wrong", wl.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload in a child process of its own, so peak RSS,
// caches and set-up time are per workload, and prints their metrics.
func runAll(seed uint64, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, wl := range workloadList {
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
			failed = append(failed, wl.name)
			fmt.Fprintf(os.Stderr, "specbench: %s: %v\n", wl.name, errors.Join(err, jerr))
			continue
		}
		fmt.Printf("== %s: correct=%t attempted=%d failed=%d\n", wl.name, rep.Correct, rep.Attempted, rep.Failed)
		for _, l := range lines[:len(lines)-1] {
			fmt.Println("   " + l)
		}
		if err != nil || !rep.Correct {
			failed = append(failed, wl.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
