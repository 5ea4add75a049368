// pointerchase compares all three speculation modes (off / alias profile /
// heuristic rules) on the mcf-style pointer-chasing kernel, illustrating
// the paper's §5.2 finding that the heuristic rules perform comparably to
// the profile-guided version — without needing a profiling run.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workloads"
)

func main() {
	ctx := context.Background()
	w, ok := workloads.ByName("mcf")
	if !ok {
		log.Fatal("mcf workload missing")
	}
	fmt.Println(w.Description)
	fmt.Println()

	var baseCycles int64
	for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic} {
		c, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: mode, ProfileArgs: w.ProfileArgs})
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.RunCtx(ctx, w.RefArgs)
		if err != nil {
			log.Fatal(err)
		}
		if mode == repro.SpecOff {
			baseCycles = res.Counters.Cycles
		}
		speedup := float64(baseCycles)/float64(res.Counters.Cycles)*100 - 100
		fmt.Printf("%-10s cycles=%-9d plain-loads=%-7d checks=%-6d failed=%-3d speedup=%+.1f%%\n",
			mode.String(), res.Counters.Cycles,
			res.Counters.LoadsRetired-res.Counters.CheckLoads,
			res.Counters.CheckLoads, res.Counters.FailedChecks, speedup)
	}
}
