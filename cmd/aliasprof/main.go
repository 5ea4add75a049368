// Command aliasprof runs the alias-profiling interpreter on a MiniC
// program and prints the collected counted LOC multisets per indirect
// reference site (observation counts over the site's execution total —
// the alias probabilities the cost-model policy consumes), the
// side-effect sets per call site, and the hottest blocks — the
// information §3.2.1 of the paper feeds back into the compiler.
//
// Profiling goes through the compilation cache: with -cache-dir a
// repeated invocation on the same source and inputs (or a later
// `experiments -cache-dir` sweep) reuses the persisted profile instead
// of re-interpreting the program.
//
// Usage:
//
//	aliasprof [-args 1,2,3] [-o prof.json] [-cache-dir DIR] file.mc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/alias"
	"repro/internal/cli"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
)

func main() { cli.Main("aliasprof", run) }

func run() error {
	progArgs := flag.String("args", "", "comma-separated program input (arg(i) values)")
	outFile := flag.String("o", "", "write the serialized profile (JSON) to this file")
	cacheDir := flag.String("cache-dir", "", "reuse/persist profiles under this directory across runs")
	flag.Parse()
	ctx := context.Background()
	if flag.NArg() != 1 {
		return cli.Usagef("usage: aliasprof [-args ...] file.mc")
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	src := string(srcBytes)
	var args []int64
	if *progArgs != "" {
		for _, part := range strings.Split(*progArgs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return cli.Usagef("bad -args: %v", err)
			}
			args = append(args, v)
		}
	}
	if *cacheDir != "" {
		if err := repro.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}

	// the canonical cached profiling computation — identical site ids to
	// what CompileCtx consumes via Config.ProfileJSON
	data, err := repro.CollectProfileCtx(ctx, src, args)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
	}

	// rebuild the refined program the profile was collected on, to
	// resolve site ids and block names for printing
	file, err := source.Parse(src)
	if err != nil {
		return err
	}
	prog, err := source.Lower(file)
	if err != nil {
		return err
	}
	alias.RefineWorkers(prog, 0)
	prof, err := profile.Unmarshal(prog, data)
	if err != nil {
		return err
	}

	keys := ir.SiteSyntaxKeys(prog)
	siteName := func(s int) string {
		if name := keys[s]; name != "" {
			return name
		}
		return fmt.Sprintf("site %d", s)
	}
	// reference sites render the counted multiset (profile v2): each LOC
	// with its observation count over the site's execution total — the
	// p(alias) the cost-model policy (-spec cost) consumes
	printCounted := func(title string, sets map[int]profile.LocSet) {
		fmt.Printf("%s:\n", title)
		var sites []int
		for s := range sets {
			sites = append(sites, s)
		}
		sort.Ints(sites)
		for _, s := range sites {
			set := sets[s]
			var parts []string
			for l, n := range set {
				if n > 0 {
					parts = append(parts, fmt.Sprintf("%s×%d", l, n))
				}
			}
			sort.Strings(parts)
			fmt.Printf("  %-40s {%s} of %d execs\n", siteName(s), strings.Join(parts, ", "), prof.Total(s))
		}
	}
	printSets := func(title string, sets map[int]profile.LocSet) {
		fmt.Printf("%s:\n", title)
		var sites []int
		for s := range sets {
			sites = append(sites, s)
		}
		sort.Ints(sites)
		for _, s := range sites {
			fmt.Printf("  %-40s %s\n", siteName(s), sets[s])
		}
	}
	printCounted("indirect load LOC multisets", prof.LoadLocs)
	printCounted("indirect store LOC multisets", prof.StoreLocs)
	printSets("call-site mod sets", prof.CallMod)
	printSets("call-site ref sets", prof.CallRef)

	// hottest blocks
	type hot struct {
		fn    string
		id    int
		count uint64
	}
	var hots []hot
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if c := prof.BlockCount[b]; c > 0 {
				hots = append(hots, hot{fn.Name, b.ID, c})
			}
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		if hots[i].fn != hots[j].fn {
			return hots[i].fn < hots[j].fn
		}
		return hots[i].id < hots[j].id
	})
	fmt.Println("hottest blocks:")
	for i, h := range hots {
		if i >= 10 {
			break
		}
		fmt.Printf("  %s B%d: %d\n", h.fn, h.id, h.count)
	}

	// per-function speculation counters: compile under the profile just
	// collected and execute the training input once, attributing each
	// advanced load, check and mis-speculation to its function — the
	// same quantities the adaptive tier monitor folds into failure-rate
	// windows, shown here per function instead of program-summed
	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: args, ProfileJSON: data})
	if err != nil {
		return err
	}
	res, err := c.RunCtx(ctx, args)
	if err != nil {
		return err
	}
	fmt.Println("per-function speculation counters (profile-guided build, training input):")
	if len(res.PerFunc) == 0 {
		fmt.Println("  (no function retired speculative loads)")
		return nil
	}
	var fns []string
	for fn := range res.PerFunc {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	fmt.Printf("  %-24s %10s %10s %10s %10s\n", "function", "adv loads", "checks", "hits", "misses")
	for _, fn := range fns {
		fc := res.PerFunc[fn]
		fmt.Printf("  %-24s %10d %10d %10d %10d\n",
			fn, fc.AdvLoads, fc.CheckLoads, fc.CheckLoads-fc.FailedChecks, fc.FailedChecks)
	}
	return nil
}
