// limits runs the paper's Fig. 12 limit studies on one kernel: the
// simulation-based load-reuse bound (a perfect speculative promoter with
// unlimited registers) and the aggressive-promotion bound (ignore every
// alias; rely on checks), compared with what the real optimizer achieves.
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
	w, _ := workloads.ByName("mcf")
	fmt.Println(w.Description)

	base, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecOff, ProfileArgs: w.ProfileArgs})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := repro.CompileCtx(ctx, w.Src, repro.Config{AggressivePromotion: true, ProfileArgs: w.ProfileArgs})
	if err != nil {
		log.Fatal(err)
	}
	rb, err := base.RunCtx(ctx, w.RefArgs)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := spec.RunCtx(ctx, w.RefArgs)
	if err != nil {
		log.Fatal(err)
	}
	ra, err := agg.RunCtx(ctx, w.RefArgs)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := repro.ReuseLimitCtx(ctx, w.Src, w.RefArgs)
	if err != nil {
		log.Fatal(err)
	}

	baseLoads := rb.Counters.LoadsRetired
	specLoads := rs.Counters.LoadsRetired - rs.Counters.CheckLoads
	aggLoads := ra.Counters.LoadsRetired - ra.Counters.CheckLoads

	fmt.Printf("baseline loads:             %d\n", baseLoads)
	fmt.Printf("achieved (profile-guided):  %.1f%% reduction\n", 100*(1-float64(specLoads)/float64(baseLoads)))
	fmt.Printf("aggressive promotion bound: %.1f%% reduction (%d failed checks recovered)\n",
		100*(1-float64(aggLoads)/float64(baseLoads)), ra.Counters.FailedChecks)
	fmt.Printf("reuse-simulation bound:     %.1f%% of loads had a reusable value\n",
		100*sim.PotentialReduction())
}
