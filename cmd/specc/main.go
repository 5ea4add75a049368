// Command specc is the compiler driver: it compiles a MiniC source file
// through the speculative-optimization pipeline and (optionally) runs it
// on the EPIC VM, printing performance counters.
//
// Usage:
//
//	specc [flags] file.mc [-- prog-args...]
//
//	-spec   off|profile|heuristic|cost   data-speculation mode (default profile)
//	-spec-threshold T               cost-model threshold for -spec cost
//	                                (>1 conservative, <1 aggressive, 0 = neutral 1)
//	-O0                             disable optimization entirely
//	-train  1,2,3                   training input for the profiling run
//	-run                            execute after compiling (default true)
//	-dump-ir                        print the optimized IR
//	-dump-asm                       print the VM code
//	-stats                          print optimizer statistics
//	-harden fence|hoist             close speculative leaks post-codegen
//	                                (Layer 3 re-verified: zero residual)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/machine"
)

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

func main() { cli.Main("specc", run) }

func run() error {
	spec := flag.String("spec", "profile", "data speculation: off|profile|heuristic|cost")
	specThreshold := flag.Float64("spec-threshold", 0, "cost-model threshold for -spec cost (0 = neutral 1)")
	o0 := flag.Bool("O0", false, "disable optimization")
	train := flag.String("train", "", "comma-separated training input for profiling")
	doRun := flag.Bool("run", true, "run the program after compiling")
	dumpIR := flag.Bool("dump-ir", false, "print optimized IR")
	dumpAsm := flag.Bool("dump-asm", false, "print VM code")
	stats := flag.Bool("stats", false, "print optimizer statistics")
	progArgs := flag.String("args", "", "comma-separated program input (arg(i) values)")
	profileFile := flag.String("profile", "", "use a serialized profile (from aliasprof -o) instead of -train")
	sched := flag.Bool("sched", false, "enable the instruction scheduler")
	pipelined := flag.Bool("pipelined", false, "use the pipelined (scoreboard) timing model")
	verify := flag.Bool("verify-passes", false, "run the speculation-soundness checker after every pipeline stage")
	hardenPol := flag.String("harden", "", "close speculative leaks post-codegen: fence|hoist (empty = off)")
	flag.Parse()

	if flag.NArg() != 1 {
		flag.Usage()
		return cli.Usagef("expected exactly one source file")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	cfg := repro.Config{OptimizeOff: *o0}
	switch *spec {
	case "off":
		cfg.Spec = repro.SpecOff
	case "profile":
		cfg.Spec = repro.SpecProfile
	case "heuristic":
		cfg.Spec = repro.SpecHeuristic
	case "cost":
		cfg.Spec = repro.SpecCost
	default:
		return cli.Usagef("unknown -spec %q", *spec)
	}
	cfg.SpecThreshold = *specThreshold
	cfg.ProfileArgs, err = parseArgs(*train)
	if err != nil {
		return cli.Usagef("bad -train: %v", err)
	}
	if *profileFile != "" {
		data, err := os.ReadFile(*profileFile)
		if err != nil {
			return err
		}
		cfg.ProfileJSON = data
	}
	cfg.Schedule = *sched
	cfg.VerifyPasses = *verify
	switch *hardenPol {
	case "", "fence", "hoist":
		cfg.Harden = *hardenPol
	default:
		return cli.Usagef("unknown -harden %q (want fence or hoist)", *hardenPol)
	}
	if *pipelined {
		cfg.Machine = machine.Defaults()
		cfg.Machine.Pipelined = true
	}
	args, err := parseArgs(*progArgs)
	if err != nil {
		return cli.Usagef("bad -args: %v", err)
	}

	ctx := context.Background()
	c, err := repro.CompileCtx(ctx, string(src), cfg)
	if err != nil {
		return err
	}
	if *stats {
		t := c.TotalStats()
		fmt.Fprintf(os.Stderr, "stats: %d classes, %d eliminated (%d speculative), %d insertions (%d control-spec), %d checks, %d adv loads, %d phis\n",
			t.ExprClasses, t.Eliminated, t.SpecEliminated, t.Insertions, t.SpecInsertions,
			t.ChecksInserted, t.AdvLoadsMarked, t.PhisPlaced)
	}
	if c.Harden != nil {
		fmt.Fprintf(os.Stderr, "harden(%s): %d leaks closed (%d fences, %d hoisted checks), %d residual\n",
			c.Harden.Policy, c.Harden.LeaksFound, c.Harden.FencesInserted, c.Harden.ChecksHoisted, c.Harden.Residual)
	}
	if *dumpIR {
		fmt.Print(c.Prog)
	}
	if *dumpAsm {
		fmt.Print(c.Code)
	}
	if !*doRun {
		return nil
	}
	res, err := c.RunCtx(ctx, args)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	fmt.Print(res.Output)
	ctr := res.Counters
	fmt.Fprintf(os.Stderr, "cycles=%d instrs=%d loads=%d (checks=%d failed=%d adv=%d spec=%d) stores=%d data-cycles=%d\n",
		ctr.Cycles, ctr.InstrsRetired, ctr.LoadsRetired, ctr.CheckLoads,
		ctr.FailedChecks, ctr.AdvLoads, ctr.SpecLoads, ctr.Stores, ctr.DataAccessCycles)
	// the compiled program's own return value is the exit code
	return cli.Exit(int(res.Ret))
}
