package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/workloads"
)

// TestAdaptiveExperiment is the end-to-end pin of the tier ladder: on
// the drifting workload the adaptive policy must beat both fixed
// extremes in total cycles, the transition log must contain a demotion
// and a re-promotion, and the drift-phase failure rate must collapse
// once the ladder converges.
func TestAdaptiveExperiment(t *testing.T) {
	res, err := RunAdaptiveCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptiveCycles >= res.AggressiveCycles {
		t.Errorf("adaptive (%d cycles) must beat fixed-aggressive (%d)",
			res.AdaptiveCycles, res.AggressiveCycles)
	}
	if res.AdaptiveCycles >= res.ConservativeCycles {
		t.Errorf("adaptive (%d cycles) must beat fixed-conservative (%d)",
			res.AdaptiveCycles, res.ConservativeCycles)
	}
	var demotions, promotions int
	for _, tr := range res.Transitions {
		from, ok1 := adaptive.TierByName(tr.From)
		to, ok2 := adaptive.TierByName(tr.To)
		if !ok1 || !ok2 {
			t.Fatalf("transition with invalid tier names: %+v", tr)
		}
		if to > from {
			demotions++
		} else {
			promotions++
		}
	}
	if demotions == 0 || promotions == 0 {
		t.Errorf("ladder must demote and re-promote; transitions = %+v", res.Transitions)
	}
	if res.DriftFailureBefore <= 0.2 {
		t.Errorf("drift must mis-speculate heavily at first (rate %.3f)", res.DriftFailureBefore)
	}
	if res.DriftFailureAfter >= 0.05 {
		t.Errorf("converged drift steady state still failing (rate %.3f)", res.DriftFailureAfter)
	}
	for _, ph := range res.Phases {
		if ph.Name == "drift" && len(ph.EndTiers) == 0 {
			t.Error("drift phase ended with no function demoted")
		}
	}
}

// TestAdaptiveDeterministic pins the BENCH_adaptive.json bytes: two
// full runs must marshal identically, or CI's exact diff against the
// committed baseline is meaningless.
func TestAdaptiveDeterministic(t *testing.T) {
	a, err := RunAdaptiveCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptiveCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := MarshalAdaptive(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := MarshalAdaptive(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("adaptive experiment not deterministic:\n%s\nvs\n%s", ja, jb)
	}
}

// TestRetieredFunctionsPassSpecheck compiles the drift workload with
// the hot function pinned to each rung of the ladder, with the
// per-pass soundness checker enabled: a re-tiered artifact must verify
// exactly like a fresh build at that tier.
func TestRetieredFunctionsPassSpecheck(t *testing.T) {
	w, ok := workloads.Resolve("drift")
	if !ok {
		t.Fatal("drift workload missing")
	}
	for tier := adaptive.TierAggressive; tier <= adaptive.TierNone; tier++ {
		cfg := repro.Config{Spec: repro.SpecCost, SpecThreshold: 1, ProfileArgs: w.ProfileArgs, VerifyPasses: true}
		var err error
		cfg.FnSpec, err = adaptive.FnSpecs(map[string]string{"hot": tier.String()})
		if err != nil {
			t.Fatal(err)
		}
		c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		if err != nil {
			t.Errorf("tier %s: specheck rejected the re-tiered build: %v", tier, err)
			continue
		}
		if c.ProfileErr != nil {
			t.Errorf("tier %s: profiling failed: %v", tier, c.ProfileErr)
		}
	}
}
