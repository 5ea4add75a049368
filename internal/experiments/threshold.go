package experiments

// The threshold sweep: the cost-model speculation policy (repro.SpecCost)
// exposes one knob, the break-even threshold θ in
// (1-p)·saved > θ·p·recover. Sweeping θ traces the speedup-vs-
// mis-speculation tradeoff curve: θ→0 speculates on everything the
// profile ever saw succeed (approaching aggressive promotion's check
// traffic), θ→∞ refuses any site with a nonzero alias probability
// (approaching ModeProfile's set semantics from below). Because a site
// with p=0 always speculates, raising θ only shrinks the speculated
// set — failed checks are monotone non-increasing along the sweep,
// which the test suite pins.
//
// Most θ values collapse to identical machine code (the policy is a
// step function of the per-site probabilities), so the sweep dedupes
// compilations by code fingerprint and pays one evaluation per distinct
// build through the record-and-replay trace path (Build.EvaluateCtx),
// not one per θ.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/workloads"
)

// DefaultThresholds is the sweep grid: geometric around the neutral 1.
func DefaultThresholds() []float64 {
	return []float64{0.25, 0.5, 1, 2, 4, 8, 16}
}

// mixprob is the sweep's dedicated kernel, kept out of workloads.All()
// so the §5 report tables are untouched. The bundled kernels' aliasing
// is nearly bimodal — a site either never aliases or aliases on almost
// every execution — so the cost policy decides them identically at every
// θ. This kernel has three promotion candidates whose stores alias the
// promoted global on exactly 1/4, 1/16 and 1/64 of their executions,
// one break point per grid step: the policy drops them one by one as θ
// grows, and the curve shows over-speculation (θ too low: recovery
// cycles swamp the saved latency) as well as under-speculation (θ too
// high: promotions forfeited).
func mixprob() workloads.Workload {
	return workloads.Workload{
		Name:        "mixprob",
		Description: "three promotion sites with 1/4, 1/16, 1/64 alias probability (threshold-sweep kernel)",
		Src: `
int acc = 0;
int scratch = 0;

int main() {
	int n = arg(0);
	int sum = 0;
	for (int i = 0; i < n; i++) {
		int *p;
		if (i % 4 == 0) { p = &acc; } else { p = &scratch; }
		int x = acc;
		*p = x + i;
		int y = acc;
		sum = sum + x + y;
	}
	for (int i = 0; i < n; i++) {
		int *p;
		if (i % 16 == 0) { p = &acc; } else { p = &scratch; }
		int x = acc;
		*p = x + i;
		int y = acc;
		sum = sum + x + y;
	}
	for (int i = 0; i < n; i++) {
		int *p;
		if (i % 64 == 0) { p = &acc; } else { p = &scratch; }
		int x = acc;
		*p = x + i;
		int y = acc;
		sum = sum + x + y;
	}
	print(sum);
	return 0;
}`,
		ProfileArgs: []int64{512},
		RefArgs:     []int64{512},
	}
}

// sweepWorkload resolves a sweep kernel: the registered ones plus the
// local mixprob kernel.
func sweepWorkload(name string) (workloads.Workload, bool) {
	if name == "mixprob" {
		return mixprob(), true
	}
	return workloads.ByName(name)
}

// ThresholdPoint is one θ measurement of the sweep.
type ThresholdPoint struct {
	Threshold    float64 `json:"threshold"`
	Cycles       int64   `json:"cycles"`
	Speedup      float64 `json:"speedup"` // vs the SpecOff base
	PlainLoads   int64   `json:"plainLoads"`
	Checks       int64   `json:"checks"`
	FailedChecks int64   `json:"failedChecks"`
	MissRatio    float64 `json:"missRatio"`
}

// ThresholdSweep is one workload's speedup-vs-mis-speculation curve.
type ThresholdSweep struct {
	Workload   string           `json:"workload"`
	BaseCycles int64            `json:"baseCycles"`
	BaseLoads  int64            `json:"baseLoads"`
	Points     []ThresholdPoint `json:"points"`
	// DistinctBuilds counts the compilations that produced unique machine
	// code — the number of evaluations actually paid for.
	DistinctBuilds int `json:"distinctBuilds"`
}

// RunThresholdSweepCtx sweeps the cost-model threshold on one workload:
// one SpecOff base build plus one SpecCost build per θ (thresholds nil =
// DefaultThresholds), deduplicated by code fingerprint and evaluated
// through the trace-replay path. Every speculative build's output is
// checked against the base.
//
// Training uses the reference input (the sensitivity study's "matched"
// setup): under the small training inputs the rare aliasing stores never
// execute, every profiled probability is 0 or 1, and the policy
// degenerates to a step function that no θ can move. Matched training is
// where probabilities are genuinely fractional — the profile sees a site
// alias on a few of its thousands of executions — and the θ knob
// actually trades residual speedup against mis-speculation.
func RunThresholdSweepCtx(ctx context.Context, name string, thresholds []float64, workers int) (ThresholdSweep, error) {
	w, ok := sweepWorkload(name)
	if !ok {
		return ThresholdSweep{}, fmt.Errorf("unknown workload %s", name)
	}
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	sweep := ThresholdSweep{Workload: name}

	// compile the base and every θ variant concurrently
	comps := make([]*repro.Build, len(thresholds)+1)
	err := par.EachCtx(ctx, workers, len(comps), func(i int) error {
		cfg := repro.Config{Spec: repro.SpecOff}
		if i > 0 {
			cfg = repro.Config{Spec: repro.SpecCost, SpecThreshold: thresholds[i-1]}
		}
		cfg.ProfileArgs = w.RefArgs
		cfg.Workers = workers
		c, err := build(ctx, w.Src, cfg)
		if err != nil {
			return err
		}
		comps[i] = c
		return nil
	})
	if err != nil {
		return sweep, err
	}

	// dedupe by machine-code fingerprint: the policy is a step function
	// of the profiled probabilities, so most θ values share a build
	type slot struct {
		first int // index into comps of the representative build
		res   *machine.Result
	}
	byCode := map[[32]byte]*slot{}
	var order []*slot
	owner := make([]*slot, len(comps))
	for i, c := range comps {
		fp := c.Code.Fingerprint()
		s, ok := byCode[fp]
		if !ok {
			s = &slot{first: i}
			byCode[fp] = s
			order = append(order, s)
		}
		owner[i] = s
	}
	err = par.EachCtx(ctx, workers, len(order), func(i int) error {
		s := order[i]
		rs, err := comps[s.first].EvaluateCtx(ctx, w.RefArgs, []machine.Config{{}}, workers)
		if err != nil {
			return err
		}
		s.res = rs[0]
		return nil
	})
	if err != nil {
		return sweep, err
	}

	base := owner[0].res
	sweep.BaseCycles = base.Counters.Cycles
	sweep.BaseLoads = plainLoads(base)
	sweep.DistinctBuilds = len(order) - 1 // not counting the base
	for i, th := range thresholds {
		r := owner[i+1].res
		if r.Output != base.Output {
			return sweep, fmt.Errorf("θ=%g output differs from base: %q vs %q", th, r.Output, base.Output)
		}
		pt := ThresholdPoint{
			Threshold:    th,
			Cycles:       r.Counters.Cycles,
			PlainLoads:   plainLoads(r),
			Checks:       r.Counters.CheckLoads,
			FailedChecks: r.Counters.FailedChecks,
		}
		if pt.Cycles > 0 {
			pt.Speedup = float64(sweep.BaseCycles)/float64(pt.Cycles) - 1
		}
		if pt.Checks > 0 {
			pt.MissRatio = float64(pt.FailedChecks) / float64(pt.Checks)
		}
		sweep.Points = append(sweep.Points, pt)
	}
	return sweep, nil
}

// ThresholdSweepKernels are the workloads the sweep is reported on: the
// fractional-probability kernel the sweep was built for, the fp-heavy
// case study, and the two kernels with input-dependent aliasing.
func ThresholdSweepKernels() []string { return []string{"mixprob", "equake", "gzip", "mcf"} }

// RunThresholdSweepsCtx runs the sweep on every report kernel,
// concurrently.
func RunThresholdSweepsCtx(ctx context.Context, workers int) ([]ThresholdSweep, error) {
	names := ThresholdSweepKernels()
	out := make([]ThresholdSweep, len(names))
	err := par.EachCtx(ctx, workers, len(names), func(i int) error {
		s, err := RunThresholdSweepCtx(ctx, names[i], nil, workers)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		out[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalThresholdSweeps renders the sweep results as canonical indented
// JSON with a trailing newline (the -exp threshold -json artifact).
func MarshalThresholdSweeps(sweeps []ThresholdSweep) ([]byte, error) {
	data, err := json.MarshalIndent(sweeps, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PrintThresholdSweep renders one workload's curve as a table plus an
// ASCII speedup figure.
func PrintThresholdSweep(w io.Writer, s ThresholdSweep) {
	fmt.Fprintf(w, "Threshold sweep on %s (cost-model speculation, ref input; base %d cycles, %d distinct builds)\n",
		s.Workload, s.BaseCycles, s.DistinctBuilds)
	fmt.Fprintf(w, "%8s %12s %9s %10s %8s %8s\n", "θ", "cycles", "speedup", "checks", "failed", "miss")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%8.2f %12d %8.2f%% %10d %8d %7.2f%%\n",
			p.Threshold, p.Cycles, p.Speedup*100, p.Checks, p.FailedChecks, p.MissRatio*100)
	}
	// the tradeoff at a glance: speedup bars over the θ axis
	max := 0.0
	for _, p := range s.Points {
		if p.Speedup > max {
			max = p.Speedup
		}
	}
	if max > 0 {
		fmt.Fprintf(w, "  speedup vs θ (full bar = %.2f%%):\n", max*100)
		for _, p := range s.Points {
			n := int(p.Speedup / max * 40)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(w, "  θ=%-6.2f %s %.2f%% (miss %.2f%%)\n",
				p.Threshold, strings.Repeat("#", n), p.Speedup*100, p.MissRatio*100)
		}
	}
}
