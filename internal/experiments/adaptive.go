package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/workloads"
)

// AdaptivePhase is one traffic phase of the drifting-workload
// experiment: a fixed input served for a fixed number of evaluations,
// with the total cycles each policy spent on it.
type AdaptivePhase struct {
	Name  string  `json:"name"`
	Args  []int64 `json:"args"`
	Evals int     `json:"evals"`
	// AdaptiveCycles is the total the tier ladder spent, including the
	// evaluations served while it was still converging.
	AdaptiveCycles int64 `json:"adaptiveCycles"`
	// AggressiveCycles / ConservativeCycles are the fixed extremes:
	// cost-guided speculation at theta=1 everywhere, and SpecOff.
	AggressiveCycles   int64 `json:"aggressiveCycles"`
	ConservativeCycles int64 `json:"conservativeCycles"`
	// EndTiers is the assignment published when the phase ended (only
	// functions below TierAggressive appear).
	EndTiers map[string]string `json:"endTiers,omitempty"`
}

// AdaptiveTransition is one published tier change, labelled with the
// phase and the 1-based evaluation within it that triggered it.
type AdaptiveTransition struct {
	Phase string `json:"phase"`
	Eval  int    `json:"eval"`
	Fn    string `json:"fn"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// SpeedupCell wraps a speedup ratio in a top-level JSON object, the
// shape every BENCH_*.json file uses for its headline ratios.
type SpeedupCell struct {
	Speedup float64 `json:"speedup"`
}

// AdaptiveResult is the outcome of the drifting-workload experiment
// (`experiments -exp adaptive`, BENCH_adaptive.json).
type AdaptiveResult struct {
	Workload    string               `json:"workload"`
	Phases      []AdaptivePhase      `json:"phases"`
	Transitions []AdaptiveTransition `json:"transitions"`
	// Totals across all phases.
	AdaptiveCycles     int64 `json:"adaptiveCycles"`
	AggressiveCycles   int64 `json:"aggressiveCycles"`
	ConservativeCycles int64 `json:"conservativeCycles"`
	// VsAggressive / VsConservative are total-cycle ratios (fixed /
	// adaptive; >1 means the ladder won end to end).
	VsAggressive   SpeedupCell `json:"adaptive_vs_aggressive"`
	VsConservative SpeedupCell `json:"adaptive_vs_conservative"`
	// DriftFailureBefore / DriftFailureAfter are the hot function's
	// check-failure rates on the first and last evaluation of the
	// drift phase: the monitor's whole job is the gap between them.
	DriftFailureBefore float64 `json:"driftFailureBefore"`
	DriftFailureAfter  float64 `json:"driftFailureAfter"`
}

// adaptivePhases is the served traffic: the training shape, a hard
// alias drift (every second store collides with the promoted global),
// and a recovery shape even cleaner than training.
func adaptivePhases() []AdaptivePhase {
	return []AdaptivePhase{
		{Name: "train", Args: []int64{256, 16}, Evals: 6},
		{Name: "drift", Args: []int64{256, 2}, Evals: 10},
		{Name: "recover", Args: []int64{256, 64}, Evals: 16},
	}
}

// RunAdaptiveCtx serves the drift workload through three traffic
// phases under the adaptive tier manager and under the two fixed
// extremes it interpolates between, and totals the cycles each policy
// spent. The adaptive run feeds every evaluation's per-function
// counters back into the monitor and waits out each recompile
// (Quiesce), so the run — including the exact evaluation each
// transition lands on — is deterministic.
func RunAdaptiveCtx(ctx context.Context, workers int) (*AdaptiveResult, error) {
	w, ok := workloads.Resolve("drift")
	if !ok {
		return nil, fmt.Errorf("experiments: drift workload missing")
	}
	serve := repro.Config{Spec: repro.SpecCost, SpecThreshold: 1, ProfileArgs: w.ProfileArgs, Workers: workers}
	conservative := repro.Config{Spec: repro.SpecOff, ProfileArgs: w.ProfileArgs, Workers: workers}

	out := &AdaptiveResult{Workload: w.Name, Phases: adaptivePhases()}

	// The label the transition callback stamps records; it fires from
	// the recompile goroutine, always before the post-eval Quiesce
	// returns, so the label set before Observe is the one it sees.
	var mu sync.Mutex
	var curPhase string
	var curEval int
	mgr := adaptive.NewManager(adaptive.Config{
		Source: w.Src,
		Build:  serve,
		OnTransition: func(tr adaptive.Transition) {
			mu.Lock()
			out.Transitions = append(out.Transitions, AdaptiveTransition{
				Phase: curPhase, Eval: curEval,
				Fn: tr.Fn, From: tr.From.String(), To: tr.To.String(),
			})
			mu.Unlock()
		},
	})
	defer mgr.Close()

	// The fixed extremes are deterministic and tierless, so one run per
	// phase stands in for all of that phase's evaluations.
	aggr, err := compile(ctx, w.Src, serve)
	if err != nil {
		return nil, err
	}
	cons, err := compile(ctx, w.Src, conservative)
	if err != nil {
		return nil, err
	}

	for pi := range out.Phases {
		ph := &out.Phases[pi]
		ra, err := aggr.RunCtx(ctx, ph.Args)
		if err != nil {
			return nil, err
		}
		rc, err := cons.RunCtx(ctx, ph.Args)
		if err != nil {
			return nil, err
		}
		ph.AggressiveCycles = ra.Counters.Cycles * int64(ph.Evals)
		ph.ConservativeCycles = rc.Counters.Cycles * int64(ph.Evals)

		for e := 1; e <= ph.Evals; e++ {
			mu.Lock()
			curPhase, curEval = ph.Name, e
			mu.Unlock()

			asn := mgr.Snapshot()
			cfg := serve
			cfg.FnSpec, err = adaptive.FnSpecs(asn.Tiers)
			if err != nil {
				return nil, err
			}
			c, err := compile(ctx, w.Src, cfg)
			if err != nil {
				return nil, err
			}
			res, err := c.RunCtx(ctx, ph.Args)
			if err != nil {
				return nil, err
			}
			if res.Output != ra.Output || res.Output != rc.Output {
				return nil, fmt.Errorf("experiments: adaptive output diverged in phase %s", ph.Name)
			}
			ph.AdaptiveCycles += res.Counters.Cycles

			if ph.Name == "drift" {
				hot := res.PerFunc["hot"]
				rate := 0.0
				if hot.CheckLoads > 0 {
					rate = float64(hot.FailedChecks) / float64(hot.CheckLoads)
				}
				if e == 1 {
					out.DriftFailureBefore = rate
				}
				if e == ph.Evals {
					out.DriftFailureAfter = rate
				}
			}

			mgr.Observe(asn.Version, res.PerFunc)
			mgr.Quiesce()
		}
		ph.EndTiers = mgr.Snapshot().Tiers

		out.AdaptiveCycles += ph.AdaptiveCycles
		out.AggressiveCycles += ph.AggressiveCycles
		out.ConservativeCycles += ph.ConservativeCycles
	}

	if out.AdaptiveCycles > 0 {
		out.VsAggressive.Speedup = float64(out.AggressiveCycles) / float64(out.AdaptiveCycles)
		out.VsConservative.Speedup = float64(out.ConservativeCycles) / float64(out.AdaptiveCycles)
	}
	return out, nil
}

// MarshalAdaptive renders the result as canonical indented JSON (the
// BENCH_adaptive.json artifact CI diffs byte for byte against a fresh
// run).
func MarshalAdaptive(res *AdaptiveResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PrintAdaptive renders the experiment as a table: per-phase cycle
// totals for the three policies, the transition log, and the headline
// ratios.
func PrintAdaptive(w io.Writer, res *AdaptiveResult) {
	fmt.Fprintf(w, "Adaptive tiering on %q: total cycles per policy\n", res.Workload)
	fmt.Fprintf(w, "%-8s %6s %14s %14s %14s\n", "phase", "evals", "adaptive", "aggressive", "conservative")
	for _, ph := range res.Phases {
		fmt.Fprintf(w, "%-8s %6d %14d %14d %14d\n",
			ph.Name, ph.Evals, ph.AdaptiveCycles, ph.AggressiveCycles, ph.ConservativeCycles)
	}
	fmt.Fprintf(w, "%-8s %6s %14d %14d %14d\n", "total", "",
		res.AdaptiveCycles, res.AggressiveCycles, res.ConservativeCycles)
	fmt.Fprintf(w, "\nspeedup vs fixed-aggressive %.3fx, vs fixed-conservative %.3fx\n",
		res.VsAggressive.Speedup, res.VsConservative.Speedup)
	fmt.Fprintf(w, "drift-phase failure rate: %.3f first eval -> %.3f last eval\n",
		res.DriftFailureBefore, res.DriftFailureAfter)
	if len(res.Transitions) == 0 {
		fmt.Fprintln(w, "no tier transitions (unexpected)")
		return
	}
	fmt.Fprintln(w, "\ntransitions:")
	for _, tr := range res.Transitions {
		fmt.Fprintf(w, "  %-8s eval %2d  %s: %s -> %s\n", tr.Phase, tr.Eval, tr.Fn, tr.From, tr.To)
	}
}
