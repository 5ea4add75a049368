// Command experiments regenerates the paper's evaluation tables (§5.1
// smvp case study, Figures 10, 11, 12, and the §5.2 heuristic-vs-profile
// comparison) on the modelled SPEC2000 workloads.
//
// Usage:
//
//	experiments                 # everything
//	experiments -json           # the same numbers as JSON (BENCH_paper.json)
//	experiments -exp fig10      # one table: smvp|fig10|fig11|fig12|heur|ablation|machine
//	experiments -exp eval -workload equake -json
//	                            # one (workload, config) point as JSON —
//	                            # byte-identical to specd's POST /evaluate
//	experiments -exp eval -workload drift -fn-tiers hot=none -json
//	                            # the same point with a per-function
//	                            # speculation override — byte-identical
//	                            # to specd's POST /evaluate with fnTiers
//	experiments -exp eval -workload mcf -harden hoist -json
//	                            # the same point hardened against
//	                            # speculative leaks — byte-identical to
//	                            # specd's hardened POST /evaluate
//	experiments -exp harden -json
//	                            # the security-vs-speed tradeoff: seeded
//	                            # speculative leaks closed under the fence
//	                            # and check-hoist policies, priced by trace
//	                            # replay (BENCH_harden.json)
//	experiments -exp corpus -corpus dir/ -json
//	                            # per-alias-pattern speculation statistics
//	                            # over a directory of MiniC sources
//	experiments -workers 1      # serial oracle (output is identical)
//	experiments -cpuprofile f   # write a pprof CPU profile to f
//	experiments -memprofile f   # write a pprof heap profile to f
//
// The report bytes are identical at any -workers value and with the
// cache cold, warm, or disabled; -cache-stats prints the cache counters to
// stderr so observability never perturbs the report itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() { cli.Main("experiments", run) }

func run() error {
	exp := flag.String("exp", "all", "experiment to run: all|smvp|fig10|fig11|fig12|heur|sensitivity|ablation|machine|threshold|harden|eval|corpus")
	workload := flag.String("workload", "equake", "workload for -exp eval")
	evalArgs := flag.String("args", "", "comma-separated program input for -exp eval (default: the workload's reference input)")
	fnTiers := flag.String("fn-tiers", "", "comma-separated fn=tier per-function speculation overrides for -exp eval (tiers: aggressive|cautious|profile|none), e.g. hot=none")
	hardenPol := flag.String("harden", "", "for -exp eval: close speculative leaks post-codegen (fence|hoist)")
	corpusDir := flag.String("corpus", "", "directory of MiniC sources for -exp corpus")
	jsonOut := flag.Bool("json", false, "emit JSON instead of a table (-exp all, threshold, harden, eval and corpus)")
	workers := flag.Int("workers", 0, "max concurrent compilations (0 = all cores, 1 = serial oracle)")
	cacheStats := flag.Bool("cache-stats", false, "print compilation-cache hit/miss counters to stderr when done")
	verify := flag.Bool("verify-passes", false, "run the speculation-soundness checker after every pipeline stage of every compilation")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file when done")
	flag.Parse()
	ctx := context.Background()

	if *verify {
		experiments.SetVerifyPasses(true)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}

	var err error
	switch *exp {
	case "all":
		var rep *experiments.Report
		rep, err = experiments.RunReportCtx(ctx, *workers)
		if err == nil && *jsonOut {
			var data []byte
			data, err = experiments.MarshalReport(rep)
			if err == nil {
				_, err = os.Stdout.Write(data)
			}
		} else if err == nil {
			experiments.PrintReport(os.Stdout, rep)
		}
	case "smvp":
		var s experiments.Smvp
		s, err = experiments.RunSmvpCtx(ctx, *workers)
		if err == nil {
			experiments.PrintSmvp(os.Stdout, s)
		}
	case "fig10", "fig11", "fig12", "heur":
		var rows []experiments.Row
		rows, err = experiments.RunAllCtx(ctx, *workers)
		if err == nil {
			switch *exp {
			case "fig10":
				experiments.PrintFig10(os.Stdout, rows)
			case "fig11":
				experiments.PrintFig11(os.Stdout, rows)
			case "fig12":
				experiments.PrintFig12(os.Stdout, rows)
			case "heur":
				experiments.PrintHeuristic(os.Stdout, rows)
			}
		}
	case "sensitivity":
		var rows []experiments.Sensitivity
		rows, err = experiments.RunSensitivityCtx(ctx, *workers)
		if err == nil {
			experiments.PrintSensitivity(os.Stdout, rows)
		}
	case "ablation":
		err = experiments.ReportAblationCtx(ctx, os.Stdout, *workers)
	case "machine":
		// hardware sensitivity sweeps on the ablation kernels — the
		// showcase of the record-and-replay path (one functional run
		// per kernel, one cheap replay per grid point)
		for _, name := range []string{"equake", "mcf"} {
			var points []experiments.MachinePoint
			points, err = experiments.RunMachineSweepCtx(ctx, name, nil, *workers)
			if err != nil {
				break
			}
			experiments.PrintMachineSweep(os.Stdout, name, points)
			fmt.Println()
		}
	case "threshold":
		// the cost-model speculation tradeoff: sweep the break-even
		// threshold θ on the input-sensitive kernels, one evaluation per
		// distinct build through the trace-replay path
		var sweeps []experiments.ThresholdSweep
		sweeps, err = experiments.RunThresholdSweepsCtx(ctx, *workers)
		if err == nil && *jsonOut {
			var data []byte
			data, err = experiments.MarshalThresholdSweeps(sweeps)
			if err == nil {
				_, err = os.Stdout.Write(data)
			}
		} else if err == nil {
			for i, s := range sweeps {
				if i > 0 {
					fmt.Println()
				}
				experiments.PrintThresholdSweep(os.Stdout, s)
			}
		}
	case "harden":
		// the security-vs-speed tradeoff: seed an output-neutral
		// speculative leak at every unchecked speculative load of every
		// workload, close them under both mitigation policies, prove zero
		// residual through Layer 3, and price each policy by trace replay
		// (BENCH_harden.json); any undetected seed or residual leak is an
		// error, so the run doubles as the hardening smoke gate
		var res *experiments.HardenResult
		res, err = experiments.RunHardenCtx(ctx, *workers)
		if err == nil && *jsonOut {
			var data []byte
			data, err = experiments.MarshalHarden(res)
			if err == nil {
				_, err = os.Stdout.Write(data)
			}
		} else if err == nil {
			experiments.PrintHarden(os.Stdout, res)
		}
		if err == nil && res.TotalResidual > 0 {
			err = fmt.Errorf("%d residual leaks after hardening", res.TotalResidual)
		}
	case "eval":
		// one (workload, config) point through the same code path specd's
		// POST /evaluate uses; with -json the bytes match the service's
		// response exactly (the CI smoke job diffs them)
		err = evalOne(ctx, *workload, *evalArgs, *fnTiers, *hardenPol, *workers, *jsonOut)
	case "corpus":
		// corpus-scale batch analysis: every MiniC source under -corpus,
		// aggregated into per-alias-pattern speculation statistics
		err = corpusRun(ctx, *corpusDir, *workers, *jsonOut)
	default:
		err = cli.Usagef("unknown experiment %q", *exp)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		if perr := writeMemProfile(*memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", perr)
		}
	}
	if *cacheStats {
		fmt.Fprintln(os.Stderr, "cache:", repro.CacheStats(), "| profiling runs:", repro.ProfilingRuns())
	}
	return err
}

// evalOne runs a single (workload, default profile-guided config)
// evaluation and renders it as JSON or a short table. args overrides
// the workload's reference input; fnTiers overrides speculation per
// function ("hot=none,aux=cautious"), reproducing the exact build — and
// with -json the exact bytes — specd serves for the same fnTiers;
// hardenPol runs the speculative-leak mitigation pass, the
// CLI twin of the server's "harden" request field.
func evalOne(ctx context.Context, name, args, fnTiers, hardenPol string, workers int, jsonOut bool) error {
	req := experiments.EvalRequest{Workload: name, Workers: workers, Harden: hardenPol}
	if args != "" {
		for _, part := range strings.Split(args, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return cli.Usagef("bad -args: %v", err)
			}
			req.Args = append(req.Args, v)
		}
	}
	if fnTiers != "" {
		req.FnTiers = map[string]string{}
		for _, pair := range strings.Split(fnTiers, ",") {
			fn, tier, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || fn == "" || tier == "" {
				return cli.Usagef("malformed -fn-tiers entry %q (want fn=tier)", pair)
			}
			req.FnTiers[fn] = tier
		}
	}
	res, err := experiments.RunEvalCtx(ctx, req)
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := experiments.MarshalEval(res)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	c := res.Result.Counters
	fmt.Printf("%s: cycles=%d loads=%d checks=%d failed=%d data-cycles=%d\n",
		res.Workload, c.Cycles, c.LoadsRetired, c.CheckLoads, c.FailedChecks, c.DataAccessCycles)
	return nil
}

// corpusRun aggregates speculation statistics over a directory of
// MiniC sources (see experiments.RunCorpusDirCtx).
func corpusRun(ctx context.Context, dir string, workers int, jsonOut bool) error {
	if dir == "" {
		return cli.Usagef("-exp corpus requires -corpus DIR")
	}
	rep, err := experiments.RunCorpusDirCtx(ctx, dir, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := experiments.MarshalCorpusReport(rep)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	experiments.PrintCorpusReport(os.Stdout, rep)
	return nil
}

// writeMemProfile snapshots the heap after a GC (so the profile shows
// live allocations, not garbage) into path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
