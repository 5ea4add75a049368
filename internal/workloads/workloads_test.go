package workloads

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestAllKernelsAllModes compiles and runs every kernel under every
// speculation configuration and checks VM output against the reference
// interpreter, on both the training and the reference input.
func TestAllKernelsAllModes(t *testing.T) {
	configs := []repro.Config{
		{OptimizeOff: true},
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{AggressivePromotion: true},
	}
	for _, w := range All() {
		for _, cfg := range configs {
			cfg.ProfileArgs = w.ProfileArgs
			name := fmt.Sprintf("%s/spec=%v_opt=%v_agg=%v", w.Name, cfg.Spec, !cfg.OptimizeOff, cfg.AggressivePromotion)
			t.Run(name, func(t *testing.T) {
				c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				for _, args := range [][]int64{w.ProfileArgs, w.RefArgs} {
					want, err := c.RunReferenceCtx(context.Background(), args)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					got, err := c.RunCtx(context.Background(), args)
					if err != nil {
						t.Fatalf("vm: %v", err)
					}
					if got.Output != want.Output {
						t.Errorf("args=%v output mismatch:\n got %q\nwant %q", args, got.Output, want.Output)
					}
				}
			})
		}
	}
}

// TestSpeculationWinsWhereThePaperSays checks the shape of Fig. 10: the
// kernels the paper highlights (equake, mcf, art, ammp, twolf) must show a
// load reduction under profile-guided speculation, and mis-speculation
// must be rare on the same-shape input.
func TestSpeculationWinsWhereThePaperSays(t *testing.T) {
	winners := map[string]bool{"equake": true, "mcf": true, "art": true, "ammp": true, "twolf": true}
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			base, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecOff, ProfileArgs: w.ProfileArgs})
			if err != nil {
				t.Fatalf("compile base: %v", err)
			}
			spec, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
			if err != nil {
				t.Fatalf("compile spec: %v", err)
			}
			rb, err := base.RunCtx(context.Background(), w.RefArgs)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := spec.RunCtx(context.Background(), w.RefArgs)
			if err != nil {
				t.Fatal(err)
			}
			reduction := 1 - float64(rs.Counters.LoadsRetired-rs.Counters.CheckLoads)/
				float64(rb.Counters.LoadsRetired)
			t.Logf("%s: plain-load reduction %.1f%%, checks %d, failed %d, cycles %d -> %d",
				w.Name, reduction*100, rs.Counters.CheckLoads, rs.Counters.FailedChecks,
				rb.Counters.Cycles, rs.Counters.Cycles)
			if winners[w.Name] {
				if reduction <= 0.02 {
					t.Errorf("%s should show a load reduction > 2%%, got %.2f%%", w.Name, reduction*100)
				}
				if rs.Counters.Cycles >= rb.Counters.Cycles {
					t.Errorf("%s: speculative version not faster (%d vs %d cycles)",
						w.Name, rs.Counters.Cycles, rb.Counters.Cycles)
				}
			}
			// mis-speculation must stay low relative to checks
			if rs.Counters.CheckLoads > 0 {
				miss := float64(rs.Counters.FailedChecks) / float64(rs.Counters.CheckLoads)
				if miss > 0.5 {
					t.Errorf("%s: mis-speculation ratio %.2f too high", w.Name, miss)
				}
			}
		})
	}
}

// TestPipelinedScheduledEquivalence runs every kernel with the instruction
// scheduler and the pipelined timing model: semantics must be unchanged
// and cycles must not regress versus the unscheduled pipelined build.
func TestPipelinedScheduledEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			base := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Machine: repro.PipelinedMachine()}
			sched := base
			sched.Schedule = true
			cb, err := repro.CompileCtx(context.Background(), w.Src, base)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := repro.CompileCtx(context.Background(), w.Src, sched)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := cb.RunCtx(context.Background(), w.RefArgs)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := cs.RunCtx(context.Background(), w.RefArgs)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Output != rs.Output {
				t.Fatalf("scheduling changed output: %q vs %q", rs.Output, rb.Output)
			}
			if rs.Counters.Cycles > rb.Counters.Cycles {
				t.Errorf("scheduling regressed pipelined cycles: %d -> %d",
					rb.Counters.Cycles, rs.Counters.Cycles)
			}
			t.Logf("%s pipelined cycles: %d -> %d", w.Name, rb.Counters.Cycles, rs.Counters.Cycles)
		})
	}
}

// TestWorkloadInventory checks the suite's structural claims: eight
// kernels named after the paper's benchmarks, each with training and
// reference inputs, each parseable, and each containing the memory
// pattern its description promises.
func TestWorkloadInventory(t *testing.T) {
	ws := All()
	if len(ws) != 8 {
		t.Fatalf("want 8 kernels, got %d", len(ws))
	}
	wantNames := map[string]bool{
		"gzip": true, "vpr": true, "mcf": true, "equake": true,
		"art": true, "ammp": true, "bzip2": true, "twolf": true,
	}
	for _, w := range ws {
		if !wantNames[w.Name] {
			t.Errorf("unexpected kernel %q", w.Name)
		}
		if len(w.ProfileArgs) == 0 || len(w.RefArgs) == 0 {
			t.Errorf("%s: missing inputs", w.Name)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Errorf("ByName(%q) failed", w.Name)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName accepted an unknown name")
	}
	// the case-study kernel must contain the smvp procedure
	eq, _ := ByName("equake")
	if !contains(eq.Src, "void smvp(") {
		t.Error("equake kernel lost its smvp procedure")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// TestHiddenWorkloads checks the hidden set stays out of the published
// inventory (report tables and the server's workload listing depend on
// its shape) while remaining servable through Resolve, and that drift
// delivers its input-controlled alias behaviour:
// correct output everywhere, a low failure rate on the training shape,
// and heavy mis-speculation once the input drifts.
func TestHiddenWorkloads(t *testing.T) {
	for _, w := range Hidden() {
		if _, ok := ByName(w.Name); ok {
			t.Errorf("hidden kernel %q leaked into the published set", w.Name)
		}
		got, ok := Resolve(w.Name)
		if !ok || got.Name != w.Name {
			t.Errorf("Resolve(%q) failed", w.Name)
		}
	}
	if _, ok := Resolve("equake"); !ok {
		t.Error("Resolve must still find published kernels")
	}

	w, _ := Resolve("drift")
	cfg := repro.Config{Spec: repro.SpecCost, SpecThreshold: 1, ProfileArgs: w.ProfileArgs}
	c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rates := make(map[int64]float64)
	for _, mod := range []int64{16, 2, 64} {
		args := []int64{256, mod}
		want, err := c.RunReferenceCtx(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunCtx(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != want.Output {
			t.Errorf("mod=%d output mismatch: got %q want %q", mod, res.Output, want.Output)
		}
		hot := res.PerFunc["hot"]
		if hot.CheckLoads == 0 {
			t.Fatalf("mod=%d: hot retired no check loads; kernel lost its speculation", mod)
		}
		rates[mod] = float64(hot.FailedChecks) / float64(hot.CheckLoads)
	}
	if rates[16] > 0.1 {
		t.Errorf("training-shape failure rate %.3f too high", rates[16])
	}
	if rates[2] < 0.25 {
		t.Errorf("drifted failure rate %.3f too low to show mis-speculation", rates[2])
	}
	if rates[64] > 0.05 {
		t.Errorf("recovered failure rate %.3f should look clean", rates[64])
	}
}
