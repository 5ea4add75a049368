package experiments

import (
	"context"
	"errors"
	"testing"

	"repro"
	"repro/internal/workloads"
)

// tierNames lists the FnTiers vocabulary from most to least
// speculative.
var tierNames = []string{"aggressive", "cautious", "profile", "none"}

// TestTierRoundTrip: every tier name parses, and the table holds
// exactly those names; anything else is an invalid config.
func TestTierRoundTrip(t *testing.T) {
	if len(tierSpecs) != len(tierNames) {
		t.Errorf("tier table has %d names, want %d", len(tierSpecs), len(tierNames))
	}
	for _, name := range tierNames {
		if _, err := FnSpecs(map[string]string{"f": name}); err != nil {
			t.Errorf("FnSpecs rejected tier %q: %v", name, err)
		}
	}
	if _, err := FnSpecs(map[string]string{"f": "bogus"}); !errors.Is(err, repro.ErrInvalidConfig) {
		t.Errorf("bogus tier: err = %v, want one wrapping ErrInvalidConfig", err)
	}
}

func TestFnSpecs(t *testing.T) {
	specs, err := FnSpecs(map[string]string{"a": "aggressive", "b": "cautious", "c": "profile", "d": "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := specs["a"]; ok {
		t.Error("aggressive must not produce an override")
	}
	if fs := specs["b"]; fs.Spec != repro.SpecCost || fs.SpecThreshold != HighThreshold {
		t.Errorf("cautious override = %+v", fs)
	}
	if fs := specs["c"]; fs.Spec != repro.SpecProfile {
		t.Errorf("profile override = %+v", fs)
	}
	if fs := specs["d"]; fs.Spec != repro.SpecOff {
		t.Errorf("none override = %+v", fs)
	}
	if specs, err := FnSpecs(map[string]string{"a": "aggressive"}); err != nil || specs != nil {
		t.Errorf("all-aggressive map must collapse to nil, got %v, %v", specs, err)
	}
	if _, err := FnSpecs(map[string]string{"a": "turbo"}); err == nil {
		t.Error("unknown tier name must error")
	}
}

// TestRetieredFunctionsPassSpecheck compiles the drift workload with
// the hot function pinned to each tier, with the per-pass soundness
// checker enabled: an overridden build must verify exactly like the
// program-wide one.
func TestRetieredFunctionsPassSpecheck(t *testing.T) {
	w, ok := workloads.Resolve("drift")
	if !ok {
		t.Fatal("drift workload missing")
	}
	for _, tier := range tierNames {
		cfg := repro.Config{Spec: repro.SpecCost, SpecThreshold: 1, ProfileArgs: w.ProfileArgs, VerifyPasses: true}
		var err error
		cfg.FnSpec, err = FnSpecs(map[string]string{"hot": tier})
		if err != nil {
			t.Fatal(err)
		}
		c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		if err != nil {
			t.Errorf("tier %s: specheck rejected the overridden build: %v", tier, err)
			continue
		}
		if c.ProfileErr != nil {
			t.Errorf("tier %s: profiling failed: %v", tier, c.ProfileErr)
		}
	}
}
