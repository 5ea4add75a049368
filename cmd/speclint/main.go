// Command speclint is the speculation-soundness verifier's front end:
// it compiles MiniC programs with the per-pass checker enabled
// (internal/specheck) and reports every violation with the pipeline
// stage that introduced it. With no file arguments it sweeps the
// bundled workloads across the full speculation-mode matrix — the CI
// gate that the optimizer never emits an unchecked speculative load.
//
// Usage:
//
//	speclint [flags] [file.mc ...]
//
//	-spec     off|profile|heuristic|cost|all   mode(s) to verify under (default all)
//	-train    1,2,3                       training input for explicit files
//	-sched                                also verify the instruction scheduler
//	-workers  N                           pipeline parallelism (0 = all cores)
//	-mutants                              run the mutation power suite instead:
//	                                      every seeded soundness bug must be caught
//	-leaks                                run the Layer 3 speculative-leak sweep
//	                                      instead: per-site leak table over the
//	                                      workload × spec-mode matrix
//	-harden   fence|hoist                 with -leaks: mitigate each leaky build
//	                                      and re-check (the gate then demands
//	                                      zero residual rather than zero leaks)
//
// Exit status: 0 all clean (or all mutants caught, or all leaks closed
// under -harden), 1 violations/leaks found (or a mutant escaped, or a
// residual leak survived hardening), 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/harden"
	"repro/internal/specheck"
	"repro/internal/specheck/mutate"
	"repro/internal/workloads"
)

func main() { cli.Main("speclint", run) }

func parseArgs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func run() error {
	spec := flag.String("spec", "all", "data speculation mode(s): off|profile|heuristic|cost|all")
	train := flag.String("train", "", "comma-separated training input for explicit source files")
	sched := flag.Bool("sched", false, "also verify the instruction scheduler")
	workers := flag.Int("workers", 0, "pipeline parallelism (0 = all cores)")
	mutants := flag.Bool("mutants", false, "run the mutation power suite (detection, not cleanliness)")
	leaksMode := flag.Bool("leaks", false, "run the Layer 3 speculative-leak sweep (per-site leak table)")
	hardenPol := flag.String("harden", "", "with -leaks: mitigation policy to apply and re-check (fence|hoist)")
	flag.Parse()
	ctx := context.Background()

	if *mutants {
		return runMutants()
	}
	if *hardenPol != "" && !*leaksMode {
		return cli.Usagef("-harden requires -leaks")
	}
	if *hardenPol != "" {
		if _, err := harden.ParsePolicy(*hardenPol); err != nil {
			return cli.Usagef("%v", err)
		}
	}

	var modes []repro.SpecMode
	switch *spec {
	case "off":
		modes = []repro.SpecMode{repro.SpecOff}
	case "profile":
		modes = []repro.SpecMode{repro.SpecProfile}
	case "heuristic":
		modes = []repro.SpecMode{repro.SpecHeuristic}
	case "cost":
		modes = []repro.SpecMode{repro.SpecCost}
	case "all":
		modes = []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic, repro.SpecCost}
	default:
		return cli.Usagef("unknown -spec %q", *spec)
	}

	trainArgs, err := parseArgs(*train)
	if err != nil {
		return cli.Usagef("bad -train: %v", err)
	}

	type unit struct {
		name  string
		src   string
		train []int64
	}
	var units []unit
	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			units = append(units, unit{name: path, src: string(data), train: trainArgs})
		}
	} else {
		for _, w := range workloads.All() {
			units = append(units, unit{name: w.Name, src: w.Src, train: w.ProfileArgs})
		}
	}

	if *leaksMode {
		var lus []leakUnit
		for _, u := range units {
			lus = append(lus, leakUnit{name: u.name, src: u.src, train: u.train})
		}
		return runLeaks(ctx, lus, modes, *hardenPol, *sched, *workers)
	}

	checked, dirty := 0, 0
	for _, u := range units {
		for _, mode := range modes {
			cfg := repro.Config{
				Spec:         mode,
				ProfileArgs:  u.train,
				Schedule:     *sched,
				Workers:      *workers,
				VerifyPasses: true,
			}
			checked++
			_, err := repro.CompileCtx(ctx, u.src, cfg)
			if err == nil {
				continue
			}
			var se *specheck.Error
			if !errors.As(err, &se) {
				return fmt.Errorf("%s (spec=%s): %w", u.name, mode, err)
			}
			dirty++
			for _, v := range se.Violations {
				fmt.Printf("%s (spec=%s): %s\n", u.name, mode, v)
			}
		}
	}
	if dirty > 0 {
		return &cli.ExitError{Code: 1, Err: fmt.Errorf("%d of %d builds dirty", dirty, checked)}
	}
	fmt.Printf("speclint: %d builds verified clean\n", checked)
	return nil
}

type leakUnit struct {
	name  string
	src   string
	train []int64
}

// runLeaks is the Layer 3 surface: it compiles every unit under every
// requested speculation mode, runs the speculative-leak taint analysis
// over the generated code, and prints one table row per leak site —
// the tainting advanced load, the sink it reaches, the sink kind and
// the unchecked path length. With a -harden policy it then mitigates
// each leaky build and reports the post-mitigation re-check; the gate
// becomes zero residual instead of zero leaks.
func runLeaks(ctx context.Context, units []leakUnit, modes []repro.SpecMode, pol string, sched bool, workers int) error {
	checked, leaksTotal, residualTotal := 0, 0, 0
	fmt.Printf("%-10s %-10s %-14s %6s %6s %-8s %5s\n",
		"unit", "mode", "func", "load", "sink", "kind", "path")
	for _, u := range units {
		for _, mode := range modes {
			cfg := repro.Config{
				Spec:        mode,
				ProfileArgs: u.train,
				Schedule:    sched,
				Workers:     workers,
			}
			checked++
			c, err := repro.CompileCtx(ctx, u.src, cfg)
			if err != nil {
				return fmt.Errorf("%s (spec=%s): %w", u.name, mode, err)
			}
			leaks := specheck.FindLeaks(c.Code)
			leaksTotal += len(leaks)
			for _, l := range leaks {
				fmt.Printf("%-10s %-10s %-14s %6d %6d %-8s %5d\n",
					u.name, mode.String(), l.Fn, l.Load, l.Sink, l.Kind, l.PathLen)
			}
			if pol == "" || len(leaks) == 0 {
				continue
			}
			policy, _ := harden.ParsePolicy(pol)
			hardened := c.Code.Clone()
			rep, err := harden.Apply(hardened, policy)
			if err != nil {
				return fmt.Errorf("%s (spec=%s): %w", u.name, mode, err)
			}
			res := len(specheck.FindLeaks(hardened))
			residualTotal += res
			fmt.Printf("%-10s %-10s harden(%s): %d closed (%d fences, %d hoisted), %d residual\n",
				u.name, mode.String(), policy, rep.LeaksFound, rep.FencesInserted, rep.ChecksHoisted, res)
		}
	}
	switch {
	case pol == "" && leaksTotal > 0:
		return &cli.ExitError{Code: 1, Err: fmt.Errorf("%d speculative leaks across %d builds", leaksTotal, checked)}
	case residualTotal > 0:
		return &cli.ExitError{Code: 1, Err: fmt.Errorf("%d residual leaks after %s hardening", residualTotal, pol)}
	}
	if pol != "" && leaksTotal > 0 {
		fmt.Printf("speclint: %d builds checked, %d leaks all closed by %s\n", checked, leaksTotal, pol)
	} else {
		fmt.Printf("speclint: %d builds leak-free\n", checked)
	}
	return nil
}

// runMutants is the power half of the verifier's own verification: it
// seeds every mutator at every applicable site of the benchmark
// kernels and demands the checker catch each one (the cleanliness half
// is the default sweep above). Mirrors the mutate package's test so CI
// can run it against a built binary.
func runMutants() error {
	kernels := []string{"equake", "mcf"}
	total, escaped := 0, 0
	for _, m := range mutate.All() {
		applied := 0
		for _, name := range kernels {
			w, ok := workloads.ByName(name)
			if !ok {
				return fmt.Errorf("workload %s missing", name)
			}
			probe, err := mutate.Build(w.Src, w.ProfileArgs, m.Stage)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sites := m.Sites(probe)
			for site := 0; site < sites; site++ {
				tgt, err := mutate.Build(w.Src, w.ProfileArgs, m.Stage)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				total++
				applied++
				if vs := m.Run(tgt, site); len(vs) == 0 {
					escaped++
					fmt.Printf("ESCAPED %s site %d on %s: %s\n", m.Name, site, name, m.Doc)
				}
			}
		}
		if applied == 0 {
			escaped++
			fmt.Printf("INAPPLICABLE %s: no sites on any kernel — blind spot\n", m.Name)
		}
	}
	if escaped > 0 {
		return &cli.ExitError{Code: 1, Err: fmt.Errorf("%d of %d mutants escaped detection", escaped, total)}
	}
	fmt.Printf("speclint: all %d seeded mutants detected\n", total)
	return nil
}
