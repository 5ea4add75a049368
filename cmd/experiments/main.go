// Command experiments regenerates the paper's evaluation tables (§5.1
// smvp case study, Figures 10, 11, 12, and the §5.2 heuristic-vs-profile
// comparison) on the modelled SPEC2000 workloads.
//
// Usage:
//
//	experiments                 # everything
//	experiments -exp fig10      # one table: smvp|fig10|fig11|fig12|heur|ablation|machine
//	experiments -exp eval -workload equake -json
//	                            # one (workload, config) point as JSON —
//	                            # byte-identical to specd's POST /evaluate
//	experiments -exp eval -workload drift -fn-tiers hot=none -json
//	                            # the same point with functions pinned to
//	                            # adaptive tiers — byte-identical to an
//	                            # adaptive specd serving that assignment
//	experiments -exp eval -workload mcf -harden hoist -json
//	                            # the same point hardened against
//	                            # speculative leaks — byte-identical to
//	                            # specd's hardened POST /evaluate
//	experiments -exp adaptive -json
//	                            # the drifting-workload run of the adaptive
//	                            # tiering runtime (BENCH_adaptive.json)
//	experiments -exp harden -json
//	                            # the security-vs-speed tradeoff: seeded
//	                            # speculative leaks closed under the fence
//	                            # and check-hoist policies, priced by trace
//	                            # replay (BENCH_harden.json)
//	experiments -exp corpus -corpus dir/ -json
//	                            # per-alias-pattern speculation statistics
//	                            # over a directory of MiniC sources
//	experiments -cache-dir DIR  # persist profiles; warm runs skip profiling
//	experiments -cache-max-bytes N
//	                            # prune the disk cache to N bytes before exit
//	experiments -workers 1      # serial oracle (output is identical)
//	experiments -cpuprofile f   # write a pprof CPU profile to f
//	experiments -memprofile f   # write a pprof heap profile to f
//
// The report bytes are identical at any -workers value and with the
// cache cold, warm, or absent; -cache-stats prints the cache counters to
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
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() { cli.Main("experiments", run) }

func run() error {
	exp := flag.String("exp", "all", "experiment to run: all|smvp|fig10|fig11|fig12|heur|sensitivity|ablation|machine|threshold|adaptive|harden|eval|corpus")
	workload := flag.String("workload", "equake", "workload for -exp eval")
	evalArgs := flag.String("args", "", "comma-separated program input for -exp eval (default: the workload's reference input)")
	fnTiers := flag.String("fn-tiers", "", "comma-separated fn=tier overrides for -exp eval (tiers: aggressive|cautious|profile|none), e.g. hot=none")
	hardenPol := flag.String("harden", "", "for -exp eval: close speculative leaks post-codegen (fence|hoist)")
	corpusDir := flag.String("corpus", "", "directory of MiniC sources for -exp corpus")
	jsonOut := flag.Bool("json", false, "emit JSON instead of a table (-exp eval and -exp corpus)")
	workers := flag.Int("workers", 0, "max concurrent compilations (0 = all cores, 1 = serial oracle)")
	cacheDir := flag.String("cache-dir", "", "persist profiles/compilation artifacts under this directory across runs")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "prune the disk cache to this many bytes before exit (0 = unbounded)")
	cacheStats := flag.Bool("cache-stats", false, "print compilation-cache hit/miss counters to stderr when done")
	verify := flag.Bool("verify-passes", false, "run the speculation-soundness checker after every pipeline stage of every compilation")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file when done")
	flag.Parse()
	ctx := context.Background()

	if *cacheDir != "" {
		if err := repro.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}
	if *verify {
		experiments.SetVerifyPasses(true)
		verifyPasses = true
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
		err = experiments.ReportCtx(ctx, os.Stdout, *workers)
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
		err = ablation(ctx, os.Stdout, *workers)
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
	case "adaptive":
		// the drifting-workload run of the adaptive tiering runtime:
		// serve traffic whose alias behaviour drifts away from the
		// training profile, let the tier ladder demote and re-promote,
		// and compare total cycles against both fixed extremes
		var res *experiments.AdaptiveResult
		res, err = experiments.RunAdaptiveCtx(ctx, *workers)
		if err == nil && *jsonOut {
			var data []byte
			data, err = experiments.MarshalAdaptive(res)
			if err == nil {
				_, err = os.Stdout.Write(data)
			}
		} else if err == nil {
			experiments.PrintAdaptive(os.Stdout, res)
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
	if err == nil && *cacheDir != "" && *cacheMaxBytes > 0 {
		if _, perr := cache.Prune(*cacheDir, *cacheMaxBytes); perr != nil {
			return perr
		}
	}
	return err
}

// evalOne runs a single (workload, default profile-guided config)
// evaluation and renders it as JSON or a short table. args overrides
// the workload's reference input; fnTiers pins functions to adaptive
// tiers ("hot=none,aux=cautious"), reproducing the exact build — and
// with -json the exact bytes — an adaptive server served under that
// assignment; hardenPol runs the speculative-leak mitigation pass, the
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

// verifyPasses mirrors -verify-passes for the ablation sweep's direct
// repro.CompileCtx calls (the table experiments go through
// experiments.SetVerifyPasses instead).
var verifyPasses bool

// compile wraps repro.CompileCtx and refuses a compilation whose training
// run faulted (the silent StaticEstimate fallback would skew the
// ablation numbers).
func compile(ctx context.Context, src string, cfg repro.Config) (*repro.Compilation, error) {
	cfg.VerifyPasses = verifyPasses
	c, err := repro.CompileCtx(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	if c.ProfileErr != nil {
		return nil, c.ProfileErr
	}
	return c, nil
}

// ablation sweeps the design choices DESIGN.md calls out on equake and
// mcf: data speculation off, control speculation off, arithmetic PRE off
// (promotion only), and ALAT capacity.
func ablation(ctx context.Context, out *os.File, workers int) error {
	kernels := []string{"equake", "mcf"}
	type cfgCase struct {
		name string
		cfg  repro.Config
	}
	for _, name := range kernels {
		w, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %s", name)
		}
		fmt.Fprintf(out, "ablation on %s (cycles on ref input):\n", name)
		cases := []cfgCase{
			{"full (profile+control spec)", repro.Config{Spec: repro.SpecProfile}},
			{"no data speculation", repro.Config{Spec: repro.SpecOff}},
			{"no control speculation", repro.Config{Spec: repro.SpecProfile, NoControlSpec: true}},
			{"loads only (no arith PRE)", repro.Config{Spec: repro.SpecProfile, NoArith: true}},
			{"no PRE at all", repro.Config{OptimizeOff: true}},
		}
		for _, c := range cases {
			c.cfg.ProfileArgs = w.ProfileArgs
			c.cfg.Workers = workers
			comp, err := compile(ctx, w.Src, c.cfg)
			if err != nil {
				return err
			}
			res, err := comp.RunCtx(ctx, w.RefArgs)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-28s %10d cycles, %8d plain loads, %6d checks (%d failed)\n",
				c.name, res.Counters.Cycles,
				res.Counters.LoadsRetired-res.Counters.CheckLoads,
				res.Counters.CheckLoads, res.Counters.FailedChecks)
		}
		// ALAT capacity sweep
		for _, size := range []int{4, 8, 32, 128} {
			cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: workers}
			cfg.Machine.ALATSize = size
			comp, err := compile(ctx, w.Src, cfg)
			if err != nil {
				return err
			}
			res, err := comp.RunCtx(ctx, w.RefArgs)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  ALAT %3d entries: %10d cycles, %6d failed checks, %6d evictions\n",
				size, res.Counters.Cycles, res.Counters.FailedChecks, res.Counters.ALATEvictions)
		}
		fmt.Fprintln(out)
	}
	return nil
}
