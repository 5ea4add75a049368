package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro"
	"repro/internal/harden"
	"repro/internal/machine"
	"repro/internal/specheck"
	"repro/internal/workloads"
)

// HardenCost prices one mitigation policy on one workload: the
// mitigations it inserted and the re-timed cycle counts of the hardened
// build under both timing models, as overhead over the leaky baseline.
type HardenCost struct {
	Fences          int   `json:"fences"`
	Hoisted         int   `json:"hoisted"`
	Residual        int   `json:"residual"`
	SerialCycles    int64 `json:"serialCycles"`
	PipelinedCycles int64 `json:"pipelinedCycles"`
	// SerialOverheadPct / PipelinedOverheadPct are the percentage cycle
	// cost over the unhardened (leaky) build — the price of security.
	SerialOverheadPct    float64 `json:"serialOverheadPct"`
	PipelinedOverheadPct float64 `json:"pipelinedOverheadPct"`
}

// HardenRow is one workload of the security-vs-speed experiment: the
// build is made leaky by seeding an output-neutral branch sink on every
// unchecked speculative load (harden.SeedBranchLeaks), Layer 3 must
// find every seed, and each policy is priced against that leaky
// baseline. Workloads whose pipelines leave no unchecked speculative
// window (LeaksSeeded 0) stay in the table as the zero-cost control.
type HardenRow struct {
	Workload    string `json:"workload"`
	LeaksSeeded int    `json:"leaksSeeded"`
	LeaksFound  int    `json:"leaksFound"`
	// SerialCycles / PipelinedCycles are the leaky baseline timings.
	SerialCycles    int64      `json:"serialCycles"`
	PipelinedCycles int64      `json:"pipelinedCycles"`
	Fence           HardenCost `json:"fence"`
	Hoist           HardenCost `json:"hoist"`
}

// HardenResult is the outcome of `experiments -exp harden`
// (BENCH_harden.json): every bundled workload, seeded leaky, mitigated
// under both policies, re-verified by Layer 3, and priced.
type HardenResult struct {
	Rows          []HardenRow `json:"rows"`
	TotalLeaks    int         `json:"totalLeaks"`
	TotalResidual int         `json:"totalResidual"`
}

// hardenTimings re-times one program variant under the serial and
// pipelined default machines through the batched replay path (one
// functional recording, one ReplayBatch walk) and returns the two cycle
// counts plus the program output for the cross-variant equality check.
func hardenTimings(ctx context.Context, code *machine.Program, args []int64) (serial, pipelined int64, output string, err error) {
	base := machine.Defaults()
	pipe := machine.Defaults()
	pipe.Pipelined = true
	trace, err := machine.RecordCtx(ctx, code, args, base)
	if err != nil {
		return 0, 0, "", err
	}
	results, err := machine.ReplayBatch(code, trace, []machine.Config{base, pipe})
	if err != nil {
		return 0, 0, "", err
	}
	return results[0].Counters.Cycles, results[1].Counters.Cycles, results[0].Output, nil
}

// RunHardenCtx runs the security-vs-speed experiment: for every bundled
// workload it compiles the profile-guided speculative build, seeds an
// output-neutral speculative leak at every unchecked speculative load,
// demands Layer 3 find each one, closes them under both mitigation
// policies, re-runs Layer 3 to prove zero residual, checks the hardened
// programs still compute the reference output, and prices each policy
// by replaying the ref input under the serial and pipelined machines.
func RunHardenCtx(ctx context.Context, workers int) (*HardenResult, error) {
	out := &HardenResult{}
	for _, w := range workloads.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := build(ctx, w.Src, repro.Config{
			Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		if leaks := specheck.FindLeaks(c.Code); len(leaks) > 0 {
			return nil, fmt.Errorf("experiments: %s: unhardened build leaks: %s", w.Name, leaks[0])
		}

		leaky := c.Code.Clone()
		row := HardenRow{Workload: w.Name, LeaksSeeded: harden.SeedBranchLeaks(leaky)}
		row.LeaksFound = len(specheck.FindLeaks(leaky))
		if row.LeaksFound < row.LeaksSeeded {
			return nil, fmt.Errorf("experiments: %s: Layer 3 found %d of %d seeded leaks",
				w.Name, row.LeaksFound, row.LeaksSeeded)
		}
		out.TotalLeaks += row.LeaksFound

		var baseOut string
		row.SerialCycles, row.PipelinedCycles, baseOut, err = hardenTimings(ctx, leaky, w.RefArgs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: leaky baseline: %w", w.Name, err)
		}

		for _, pol := range []harden.Policy{harden.PolicyFence, harden.PolicyHoist} {
			hardened := leaky.Clone()
			rep, err := harden.Apply(hardened, pol)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", w.Name, err)
			}
			cost := HardenCost{
				Fences:   rep.FencesInserted,
				Hoisted:  rep.ChecksHoisted,
				Residual: len(specheck.FindLeaks(hardened)),
			}
			out.TotalResidual += cost.Residual
			var hardOut string
			cost.SerialCycles, cost.PipelinedCycles, hardOut, err = hardenTimings(ctx, hardened, w.RefArgs)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", w.Name, pol, err)
			}
			if hardOut != baseOut {
				return nil, fmt.Errorf("experiments: %s: %s-hardened output diverged", w.Name, pol)
			}
			if row.SerialCycles > 0 {
				cost.SerialOverheadPct = 100 * (float64(cost.SerialCycles)/float64(row.SerialCycles) - 1)
			}
			if row.PipelinedCycles > 0 {
				cost.PipelinedOverheadPct = 100 * (float64(cost.PipelinedCycles)/float64(row.PipelinedCycles) - 1)
			}
			if pol == harden.PolicyFence {
				row.Fence = cost
			} else {
				row.Hoist = cost
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// SpeedupCell wraps a speedup ratio in a top-level JSON object, the
// shape BENCH_harden.json uses for its headline ratios.
type SpeedupCell struct {
	Speedup float64 `json:"speedup"`
}

// MarshalHarden renders the result as canonical indented JSON
// (BENCH_harden.json). Besides the rows, every workload contributes
// "<name>_fence" and "<name>_hoist" top-level cells holding the
// leaky-over-hardened serial cycle ratio in the object-with-"speedup"
// shape (SpeedupCell): 1.0 means free hardening, lower means overhead.
// The bytes are deterministic, so CI diffs a fresh run against the
// committed file exactly.
func MarshalHarden(res *HardenResult) ([]byte, error) {
	doc := map[string]any{
		"rows":          res.Rows,
		"totalLeaks":    res.TotalLeaks,
		"totalResidual": res.TotalResidual,
	}
	for _, r := range res.Rows {
		if r.Fence.SerialCycles > 0 {
			doc[r.Workload+"_fence"] = SpeedupCell{Speedup: float64(r.SerialCycles) / float64(r.Fence.SerialCycles)}
		}
		if r.Hoist.SerialCycles > 0 {
			doc[r.Workload+"_hoist"] = SpeedupCell{Speedup: float64(r.SerialCycles) / float64(r.Hoist.SerialCycles)}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PrintHarden renders the experiment as a table: per workload, the
// seeded/found leak counts, the leaky baseline, and each policy's
// mitigation mix and overhead under both timing models.
func PrintHarden(w io.Writer, res *HardenResult) {
	fmt.Fprintf(w, "Hardening cost on seeded speculative leaks (ref inputs)\n")
	fmt.Fprintf(w, "%-8s %6s %6s  %-24s %-24s\n", "", "", "", "fence", "hoist")
	fmt.Fprintf(w, "%-8s %6s %6s  %5s %8s %9s %5s %8s %9s\n",
		"workload", "seeded", "found", "f/h", "serial%", "pipeline%", "f/h", "serial%", "pipeline%")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8s %6d %6d  %2d/%-2d %+8.3f %+9.3f %2d/%-2d %+8.3f %+9.3f\n",
			r.Workload, r.LeaksSeeded, r.LeaksFound,
			r.Fence.Fences, r.Fence.Hoisted, r.Fence.SerialOverheadPct, r.Fence.PipelinedOverheadPct,
			r.Hoist.Fences, r.Hoist.Hoisted, r.Hoist.SerialOverheadPct, r.Hoist.PipelinedOverheadPct)
	}
	fmt.Fprintf(w, "\n%d leaks found, %d residual after hardening\n", res.TotalLeaks, res.TotalResidual)
}
