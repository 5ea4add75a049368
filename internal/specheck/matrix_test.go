package specheck_test

// The clean-matrix test: the speculation-soundness checker must report
// zero violations on every bundled workload under every speculation mode
// and pipeline variant, serially and in parallel. This is the other half
// of the mutation harness (mutate/mutate_test.go): the mutants prove the
// checker catches broken pipelines, this proves it accepts the real one.

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/workloads"
)

// variants is the configuration matrix from the acceptance criteria:
// the three flag sources, the alias-analysis ablation, aggressive
// promotion, the unoptimized pipeline and the scheduler.
func variants() map[string]repro.Config {
	return map[string]repro.Config{
		"off":        {Spec: repro.SpecOff},
		"profile":    {Spec: repro.SpecProfile},
		"heuristic":  {Spec: repro.SpecHeuristic},
		"cost":       {Spec: repro.SpecCost},
		"cost-hi":    {Spec: repro.SpecCost, SpecThreshold: 8},
		"no-type-aa": {Spec: repro.SpecProfile, NoTypeBasedAA: true},
		"aggressive": {AggressivePromotion: true},
		"opt-off":    {OptimizeOff: true},
		"schedule":   {Spec: repro.SpecProfile, Schedule: true},
	}
}

func TestPipelineIsCleanOnAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for name, cfg := range variants() {
			for _, workers := range []int{1, 8} {
				w, name, cfg, workers := w, name, cfg, workers
				t.Run(fmt.Sprintf("%s/%s/w%d", w.Name, name, workers), func(t *testing.T) {
					t.Parallel()
					cfg.ProfileArgs = w.ProfileArgs
					cfg.VerifyPasses = true
					cfg.Workers = workers
					c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
					if err != nil {
						t.Fatalf("specheck found violations in the real pipeline: %v", err)
					}
					if c.ProfileErr != nil {
						t.Fatalf("profiling run failed: %v", c.ProfileErr)
					}
					// the verified program must still run correctly
					res, err := c.RunCtx(context.Background(), w.RefArgs)
					if err != nil {
						t.Fatalf("verified program faulted: %v", err)
					}
					ref, err := c.RunReferenceCtx(context.Background(), w.RefArgs)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					if res.Output != ref.Output {
						t.Fatalf("verified program output differs from reference:\n%q\nvs\n%q",
							res.Output, ref.Output)
					}
				})
			}
		}
	}
}
