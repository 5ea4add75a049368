// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the modelled workloads:
//
//   - §5.1  the equake/smvp case study (checks-per-load ratio, speedup
//     over the base, and the no-check manual upper bound);
//   - Fig. 10  per-benchmark dynamic-load reduction, execution-time
//     speedup and data-access-cycle reduction of speculative register
//     promotion over the O3-equivalent baseline;
//   - Fig. 11  check-loads over loads retired and the mis-speculation
//     ratio, from the ALAT counters (the pfmon stand-in);
//   - Fig. 12  potential load reduction by the simulation-based
//     load-reuse method and by aggressive (alias-ignoring) register
//     promotion;
//   - §5.2  the heuristic-rules variant compared with the profile-guided
//     one.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro"
	"repro/internal/harden"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// plainLoads is the load count the paper's tables are built on: loads
// retired minus check loads (ld.c/ldf.c are accounted separately in
// Fig. 11). Every metric that compares load counts across builds must
// use it, or a speculative build's checks would be double counted.
func plainLoads(r *machine.Result) int64 {
	return r.Counters.LoadsRetired - r.Counters.CheckLoads
}

// verifyPasses, when set (SetVerifyPasses / `experiments
// -verify-passes`), turns the speculation-soundness checker on for
// every compilation the experiments run. It only adds verification —
// results are unchanged, compilations just fail loudly on a dirty
// pipeline stage.
var verifyPasses atomic.Bool

// SetVerifyPasses makes every experiment compilation run the per-pass
// speculation-soundness checker (repro.Config.VerifyPasses).
func SetVerifyPasses(on bool) { verifyPasses.Store(on) }

// compile wraps repro.CompileCtx and fails loudly when the training run
// faulted: a silent StaticEstimate fallback would skew every
// profile-guided number in the tables while looking plausible.
func compile(ctx context.Context, src string, cfg repro.Config) (*repro.Compilation, error) {
	if verifyPasses.Load() {
		cfg.VerifyPasses = true
	}
	c, err := repro.CompileCtx(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	if c.ProfileErr != nil {
		return nil, c.ProfileErr
	}
	return c, nil
}

// build is compile for the serving paths (RunEvalCtx, RunMachineSweepCtx):
// it returns the memoized, IR-free repro.Build, so a repeated (source,
// config) pair does not run the pipeline again.
func build(ctx context.Context, src string, cfg repro.Config) (*repro.Build, error) {
	if verifyPasses.Load() {
		cfg.VerifyPasses = true
	}
	b, err := repro.BuildCtx(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	if b.ProfileErr != nil {
		return nil, b.ProfileErr
	}
	return b, nil
}

// Row is one benchmark's measurements for the Fig. 10/11 tables.
type Row struct {
	Name string

	BaseLoads, SpecLoads   int64 // plain (non-check) loads retired
	BaseCycles, SpecCycles int64
	BaseData, SpecData     int64 // data-access cycles

	Checks       int64
	FailedChecks int64
	LoadsRetired int64 // total loads retired in the speculative build

	// Fig. 12 potentials
	ReusePotential      float64 // simulation-based load-reuse limit
	AggressiveReduction float64 // aggressive promotion upper bound

	// §5.2 heuristic variant
	HeurLoads  int64
	HeurCycles int64
}

// LoadReduction is the paper's first metric: percent of dynamic loads
// removed by speculative register promotion.
func (r Row) LoadReduction() float64 {
	if r.BaseLoads == 0 {
		return 0
	}
	return 1 - float64(r.SpecLoads)/float64(r.BaseLoads)
}

// Speedup over the base in execution time (cycles).
func (r Row) Speedup() float64 {
	if r.SpecCycles == 0 {
		return 0
	}
	return float64(r.BaseCycles)/float64(r.SpecCycles) - 1
}

// DataCycleReduction is the reduction of cycles attributed to data access.
func (r Row) DataCycleReduction() float64 {
	if r.BaseData == 0 {
		return 0
	}
	return 1 - float64(r.SpecData)/float64(r.BaseData)
}

// CheckRatio is Fig. 11's percentage of check loads over loads retired.
func (r Row) CheckRatio() float64 {
	if r.LoadsRetired == 0 {
		return 0
	}
	return float64(r.Checks) / float64(r.LoadsRetired)
}

// MissRatio is Fig. 11's mis-speculation ratio (failed / total checks).
func (r Row) MissRatio() float64 {
	if r.Checks == 0 {
		return 0
	}
	return float64(r.FailedChecks) / float64(r.Checks)
}

// HeurLoadReduction is the heuristic variant's load reduction (§5.2).
func (r Row) HeurLoadReduction() float64 {
	if r.BaseLoads == 0 {
		return 0
	}
	return 1 - float64(r.HeurLoads)/float64(r.BaseLoads)
}

// RunAllCtx measures every workload under base (SpecOff), profile-guided
// and heuristic speculation, plus the Fig. 12 limit methods, with at most
// workers workloads in flight (0 = all cores, 1 = the serial oracle). The
// same worker bound is threaded into each workload's config sweep and
// from there into every compilation, so workers=1 reproduces the fully
// serial engine. Cancellation is threaded through the workload fan-out
// and every compilation under it.
func RunAllCtx(ctx context.Context, workers int) ([]Row, error) {
	ws := workloads.All()
	rows := make([]Row, len(ws))
	err := par.EachCtx(ctx, workers, len(ws), func(i int) error {
		row, err := RunOneCtx(ctx, ws[i], workers)
		if err != nil {
			return fmt.Errorf("%s: %w", ws[i].Name, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunOneCtx measures a single workload with at most workers config
// variants compiling concurrently (0 = all cores). Every variant
// re-compiles the same source, so all of them after the first hit the
// frontend compilation cache and pay only for their own optimization
// pipeline. Cancellation is threaded through the variant fan-out, each
// compilation, and each run.
func RunOneCtx(ctx context.Context, w workloads.Workload, workers int) (Row, error) {
	row := Row{Name: w.Name}

	variants := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{AggressivePromotion: true},
	}
	results := make([]*machine.Result, len(variants))
	var reusePotential float64
	// the variants plus the Fig. 12 reuse-limit simulation are mutually
	// independent; item len(variants) is the simulation
	err := par.EachCtx(ctx, workers, len(variants)+1, func(i int) error {
		if i == len(variants) {
			sim, err := repro.ReuseLimitCtx(ctx, w.Src, w.RefArgs)
			if err != nil {
				return err
			}
			reusePotential = sim.PotentialReduction()
			return nil
		}
		cfg := variants[i]
		cfg.ProfileArgs = w.ProfileArgs
		cfg.Workers = workers
		c, err := compile(ctx, w.Src, cfg)
		if err != nil {
			return err
		}
		res, err := c.RunCtx(ctx, w.RefArgs)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return row, err
	}
	base, spec, heur, agg := results[0], results[1], results[2], results[3]
	for _, r := range results[1:] {
		if r.Output != base.Output {
			return row, fmt.Errorf("output mismatch between variants: %q vs %q", r.Output, base.Output)
		}
	}
	row.BaseLoads, row.BaseCycles, row.BaseData = plainLoads(base), base.Counters.Cycles, base.Counters.DataAccessCycles
	row.SpecLoads, row.SpecCycles, row.SpecData = plainLoads(spec), spec.Counters.Cycles, spec.Counters.DataAccessCycles
	row.Checks = spec.Counters.CheckLoads
	row.FailedChecks = spec.Counters.FailedChecks
	row.LoadsRetired = spec.Counters.LoadsRetired
	row.HeurLoads, row.HeurCycles = plainLoads(heur), heur.Counters.Cycles
	if row.BaseLoads > 0 {
		row.AggressiveReduction = 1 - float64(plainLoads(agg))/float64(row.BaseLoads)
	}
	row.ReusePotential = reusePotential
	return row, nil
}

// Smvp holds the §5.1 case-study measurements.
type Smvp struct {
	ChecksPerLoad float64 // fraction of the procedure's loads replaced by checks
	Speedup       float64 // speculative vs base
	ManualSpeedup float64 // aggressive no-check bound vs base ("manually tuned")
}

// RunSmvpCtx reproduces the §5.1 case study on the equake kernel: the
// fraction of load operations converted to checks, the speedup of
// speculative promotion, and the upper bound of a manually tuned version
// that promotes without any check instructions (compiled with
// AggressivePromotion and zero-cost checks — the paper's hand-allocated
// registers). At most workers variants compile concurrently; the bound
// is threaded into each compilation.
func RunSmvpCtx(ctx context.Context, workers int) (Smvp, error) {
	w, ok := workloads.ByName("equake")
	if !ok {
		return Smvp{}, fmt.Errorf("experiments: smvp case study: workload %q is not registered", "equake")
	}
	manualCfg := repro.Config{AggressivePromotion: true}
	// hand-allocated registers: no check instructions at all — run the
	// aggressive build with zero-cost checks
	manualCfg.Machine.CheckHitLat = machine.Free
	manualCfg.Machine.CheckMissPen = machine.Free
	variants := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		manualCfg,
	}
	results := make([]*machine.Result, len(variants))
	err := par.EachCtx(ctx, workers, len(variants), func(i int) error {
		cfg := variants[i]
		cfg.ProfileArgs = w.ProfileArgs
		cfg.Workers = workers
		c, err := compile(ctx, w.Src, cfg)
		if err != nil {
			return err
		}
		res, err := c.RunCtx(ctx, w.RefArgs)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return Smvp{}, err
	}
	rb, rs, rm := results[0], results[1], results[2]
	var s Smvp
	if rs.Counters.LoadsRetired > 0 {
		s.ChecksPerLoad = float64(rs.Counters.CheckLoads) / float64(rs.Counters.LoadsRetired)
	}
	if rs.Counters.Cycles > 0 {
		s.Speedup = float64(rb.Counters.Cycles)/float64(rs.Counters.Cycles) - 1
	}
	if rm.Counters.Cycles > 0 {
		s.ManualSpeedup = float64(rb.Counters.Cycles)/float64(rm.Counters.Cycles) - 1
	}
	return s, nil
}

// PrintFig10 renders the Fig. 10 table.
func PrintFig10(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Figure 10: effect of speculative register promotion (ref input)")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %14s\n", "bench", "base loads", "spec loads", "load red.", "speedup / dcyc red.")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12d %12d %11.1f%% %8.1f%% / %5.1f%%\n",
			r.Name, r.BaseLoads, r.SpecLoads, r.LoadReduction()*100, r.Speedup()*100, r.DataCycleReduction()*100)
	}
}

// PrintFig11 renders the Fig. 11 table.
func PrintFig11(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Figure 11: check loads and mis-speculation (ref input)")
	fmt.Fprintf(w, "%-8s %12s %14s %12s %12s\n", "bench", "checks", "loads retired", "check ratio", "miss ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12d %14d %11.2f%% %11.2f%%\n",
			r.Name, r.Checks, r.LoadsRetired, r.CheckRatio()*100, r.MissRatio()*100)
	}
}

// PrintFig12 renders the Fig. 12 table.
func PrintFig12(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Figure 12: potential load reduction (ref input)")
	fmt.Fprintf(w, "%-8s %12s %14s %12s\n", "bench", "achieved", "reuse limit", "aggressive")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %11.1f%% %13.1f%% %11.1f%%\n",
			r.Name, r.LoadReduction()*100, r.ReusePotential*100, r.AggressiveReduction*100)
	}
}

// PrintHeuristic renders the §5.2 heuristic-vs-profile comparison.
func PrintHeuristic(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "§5.2: heuristic rules vs alias profile (load reduction, ref input)")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "bench", "profile", "heuristic")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %11.1f%% %11.1f%%\n", r.Name, r.LoadReduction()*100, r.HeurLoadReduction()*100)
	}
}

// PrintSmvp renders the §5.1 case study.
func PrintSmvp(w io.Writer, s Smvp) {
	fmt.Fprintln(w, "§5.1: equake smvp case study")
	fmt.Fprintf(w, "  loads converted to checks: %.1f%% (paper: 39.8%%)\n", s.ChecksPerLoad*100)
	fmt.Fprintf(w, "  speculative speedup:       %.1f%% (paper: 6%%)\n", s.Speedup*100)
	fmt.Fprintf(w, "  manual no-check bound:     %.1f%% (paper: 14%%)\n", s.ManualSpeedup*100)
}

// ReportCtx runs everything and renders all tables, with the given
// worker bound threaded through every study; the rendered bytes are
// identical at any worker count and with the compilation cache cold,
// warm, or disabled.
func ReportCtx(ctx context.Context, w io.Writer, workers int) error {
	s, err := RunSmvpCtx(ctx, workers)
	if err != nil {
		return err
	}
	PrintSmvp(w, s)
	fmt.Fprintln(w)
	rows, err := RunAllCtx(ctx, workers)
	if err != nil {
		return err
	}
	PrintFig10(w, rows)
	fmt.Fprintln(w)
	PrintFig11(w, rows)
	fmt.Fprintln(w)
	PrintFig12(w, rows)
	fmt.Fprintln(w)
	PrintHeuristic(w, rows)
	fmt.Fprintln(w)
	sens, err := RunSensitivityCtx(ctx, workers)
	if err != nil {
		return err
	}
	PrintSensitivity(w, sens)
	return nil
}

// Summary returns a one-line shape check used by tests: which benchmarks
// won, by how much.
func Summary(rows []Row) string {
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s=%.0f%%", r.Name, r.LoadReduction()*100))
	}
	return strings.Join(parts, " ")
}

// Sensitivity is the input-sensitivity study motivated by the paper's §1:
// alias profiles "do not guarantee they are not aliases under different
// program inputs", which is exactly why the information must be used
// speculatively. For each kernel we compare training on the training
// input (mis-matched: the reference run sees aliasing the profile never
// saw) against training on the reference input itself (matched).
type Sensitivity struct {
	Name                  string
	MismatchChecks        int64
	MismatchFailed        int64
	MatchedChecks         int64
	MatchedFailed         int64
	OutputsCorrect        bool
	MismatchLoadReduction float64
	MatchedLoadReduction  float64
}

// RunSensitivityCtx measures the input-sensitivity table on kernels that
// have input-dependent aliasing (gzip and mcf carry rare aliasing stores
// that small training inputs never execute), with at most workers
// kernels (and, within each kernel, compilations) in flight; the bound
// is threaded into every compilation, so workers=1 is the serial oracle.
func RunSensitivityCtx(ctx context.Context, workers int) ([]Sensitivity, error) {
	names := []string{"gzip", "mcf", "equake"}
	rows := make([]Sensitivity, len(names))
	err := par.EachCtx(ctx, workers, len(names), func(i int) error {
		row, err := sensitivityRow(ctx, names[i], workers)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sensitivityRow measures one kernel: the base build plus a build
// trained on the training input (mismatched) and one trained on the
// reference input (matched). The three compilations are independent and
// fan out under the same worker bound.
func sensitivityRow(ctx context.Context, name string, workers int) (Sensitivity, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return Sensitivity{}, fmt.Errorf("unknown workload %s", name)
	}
	variants := []repro.Config{
		{Spec: repro.SpecOff, ProfileArgs: w.ProfileArgs},
		{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs},
		{Spec: repro.SpecProfile, ProfileArgs: w.RefArgs},
	}
	results := make([]*machine.Result, len(variants))
	err := par.EachCtx(ctx, workers, len(variants), func(i int) error {
		cfg := variants[i]
		cfg.Workers = workers
		c, err := compile(ctx, w.Src, cfg)
		if err != nil {
			return err
		}
		res, err := c.RunCtx(ctx, w.RefArgs)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return Sensitivity{}, err
	}
	rb, mis, mat := results[0], results[1], results[2]
	red := func(r *machine.Result) float64 {
		if plainLoads(rb) == 0 {
			return 0
		}
		return 1 - float64(plainLoads(r))/float64(plainLoads(rb))
	}
	return Sensitivity{
		Name:                  name,
		OutputsCorrect:        mis.Output == rb.Output && mat.Output == rb.Output,
		MismatchChecks:        mis.Counters.CheckLoads,
		MismatchFailed:        mis.Counters.FailedChecks,
		MismatchLoadReduction: red(mis),
		MatchedChecks:         mat.Counters.CheckLoads,
		MatchedFailed:         mat.Counters.FailedChecks,
		MatchedLoadReduction:  red(mat),
	}, nil
}

// MachineSweepConfigs returns the machine-model grid of the §5-style
// hardware sensitivity sweeps: ALAT capacities crossed with three
// memory-latency points, under both the serial and the pipelined timing
// model. With the trace path enabled the whole grid costs one
// functional run plus one cheap replay per point.
func MachineSweepConfigs() []machine.Config {
	latencies := []struct{ intLd, fpLd int }{{2, 9}, {4, 12}, {8, 24}}
	var cfgs []machine.Config
	for _, pipelined := range []bool{false, true} {
		for _, alat := range []int{4, 8, 32, 128} {
			for _, lat := range latencies {
				cfgs = append(cfgs, machine.Config{
					ALATSize:   alat,
					IntLoadLat: lat.intLd,
					FPLoadLat:  lat.fpLd,
					Pipelined:  pipelined,
				})
			}
		}
	}
	return cfgs
}

// MachinePoint is one (workload, machine config) measurement of the
// hardware sensitivity sweep.
type MachinePoint struct {
	Config       machine.Config
	Cycles       int64
	FailedChecks int64
	Evictions    int64
}

// RunMachineSweepCtx measures the profile-guided speculative build of
// one workload under every point of cfgs (nil = MachineSweepConfigs),
// with at most workers re-timings in flight (0 = all cores). The
// compiled program executes functionally once; each grid point is a
// trace replay sharing the recording read-only. ctx is threaded through
// the compilation, the one functional recording, and the per-point
// replay fan-out, so cancelling a sweep stops claiming grid points
// promptly.
func RunMachineSweepCtx(ctx context.Context, name string, cfgs []machine.Config, workers int) ([]MachinePoint, error) {
	w, ok := workloads.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %s", name)
	}
	b, err := build(ctx, w.Src, repro.Config{
		Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	if cfgs == nil {
		cfgs = MachineSweepConfigs()
	}
	results, err := b.EvaluateCtx(ctx, w.RefArgs, cfgs, workers)
	if err != nil {
		return nil, err
	}
	points := make([]MachinePoint, len(cfgs))
	for i, r := range results {
		points[i] = MachinePoint{
			Config:       cfgs[i],
			Cycles:       r.Counters.Cycles,
			FailedChecks: r.Counters.FailedChecks,
			Evictions:    r.Counters.ALATEvictions,
		}
	}
	return points, nil
}

// PrintMachineSweep renders the hardware sensitivity table.
func PrintMachineSweep(w io.Writer, name string, points []MachinePoint) {
	fmt.Fprintf(w, "Hardware sensitivity (%s, ref input)\n", name)
	fmt.Fprintf(w, "%-10s %6s %8s %14s %10s %10s\n", "model", "alat", "ld lat", "cycles", "failed", "evicted")
	for _, p := range points {
		model := "serial"
		if p.Config.Pipelined {
			model = "pipelined"
		}
		fmt.Fprintf(w, "%-10s %6d %5d/%-2d %14d %10d %10d\n",
			model, p.Config.ALATSize, p.Config.IntLoadLat, p.Config.FPLoadLat,
			p.Cycles, p.FailedChecks, p.Evictions)
	}
}

// EvalRequest is one (workload, config) evaluation — the unit of work
// behind both `experiments -exp eval` and specd's POST /evaluate. The
// two front ends share RunEvalCtx and MarshalEval, which is what makes
// the service's responses byte-identical to the CLI's output for the
// same request.
type EvalRequest struct {
	// Workload names a registered kernel (see workloads.All).
	Workload string `json:"workload"`
	// Config, when non-nil, overrides the default build (profile-guided
	// speculation trained on the workload's training input).
	Config *repro.Config `json:"config,omitempty"`
	// Args overrides the measurement input (default: the workload's
	// reference input).
	Args []int64 `json:"args,omitempty"`
	// Workers bounds the evaluation's parallelism. It shapes scheduling
	// only, never results, and is excluded from the echoed config.
	Workers int `json:"workers,omitempty"`
	// Verify runs the per-pass speculation-soundness checker
	// (repro.Config.VerifyPasses) during the compilation; a violation
	// fails the request. Like Workers it is a diagnostic knob, so it is
	// normalized out of the echoed config to keep response bytes stable.
	Verify bool `json:"verify,omitempty"`
	// FnTiers overrides speculation per function by tier name
	// ("aggressive", "cautious", "profile", "none"; see FnSpecs); the
	// mapped repro.Config.FnSpec overrides land in the echoed config, so
	// a response names the exact build that served it and the CLI can
	// reproduce the bytes with -fn-tiers. Mutually exclusive with
	// Config.FnSpec (FnTiers wins).
	FnTiers map[string]string `json:"fnTiers,omitempty"`
	// Harden applies a speculative-leak mitigation policy ("fence" or
	// "hoist", see internal/harden) to the generated code. It is a
	// semantic knob — the hardened build runs slower and leak-free — so
	// it lands in the echoed config (as Config.Harden), and the
	// mitigation report rides along in EvalResult.Harden. Overrides
	// Config.Harden when both are set.
	Harden string `json:"harden,omitempty"`
}

// HighThreshold is the SpecCost recovery weighting of the "cautious"
// tier: recovery cycles count 16x, so only sites whose training alias
// probability sits far below the θ=1 break-even keep speculating.
const HighThreshold = 16

// tierSpecs maps each FnTiers tier name to the repro.FnSpec override it
// stands for. "aggressive" needs none: the function compiles under the
// request's own config.
var tierSpecs = map[string]*repro.FnSpec{
	"aggressive": nil,
	"cautious":   {Spec: repro.SpecCost, SpecThreshold: HighThreshold},
	"profile":    {Spec: repro.SpecProfile},
	"none":       {}, // zero value: SpecOff
}

// FnSpecs converts an FnTiers map (function name -> tier name) into the
// repro.Config.FnSpec override map. "aggressive" entries are dropped,
// and an empty result is nil, so the config marshals identically to one
// without overrides. An unknown tier name is an error wrapping
// repro.ErrInvalidConfig.
func FnSpecs(tiers map[string]string) (map[string]repro.FnSpec, error) {
	var out map[string]repro.FnSpec
	for fn, name := range tiers {
		fs, ok := tierSpecs[name]
		if !ok {
			return nil, fmt.Errorf("experiments: %w: unknown tier %q for function %q", repro.ErrInvalidConfig, name, fn)
		}
		if fs == nil {
			continue
		}
		if out == nil {
			out = make(map[string]repro.FnSpec)
		}
		out[fn] = *fs
	}
	return out, nil
}

// EvalResult is the JSON shape of one evaluation: the request echoed in
// normalized form plus the machine counters and optimizer statistics.
type EvalResult struct {
	Workload string          `json:"workload"`
	Config   repro.Config    `json:"config"`
	Args     []int64         `json:"args"`
	Result   *machine.Result `json:"result"`
	Stats    ssapre.Stats    `json:"stats"`
	// Harden is the leak-mitigation report for hardened builds (nil
	// when the request did not ask for hardening).
	Harden *harden.Report `json:"harden,omitempty"`
}

// RunEvalCtx compiles and runs one (workload, config) point; the build
// is memoized (repro.BuildCtx), so a repeated point only replays. The
// result is deterministic — identical at any worker count and with the
// compilation cache cold, warm, or disabled — because every computation
// under it is (see the determinism tests at the repo root).
func RunEvalCtx(ctx context.Context, req EvalRequest) (*EvalResult, error) {
	w, ok := workloads.Resolve(req.Workload)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", req.Workload)
	}
	cfg := repro.Config{Spec: repro.SpecProfile}
	if req.Config != nil {
		cfg = *req.Config
	}
	if cfg.ProfileArgs == nil {
		cfg.ProfileArgs = w.ProfileArgs
	}
	if len(req.FnTiers) > 0 {
		fnSpec, err := FnSpecs(req.FnTiers)
		if err != nil {
			return nil, err
		}
		cfg.FnSpec = fnSpec
	}
	cfg.Workers = req.Workers
	if req.Verify {
		cfg.VerifyPasses = true
	}
	if req.Harden != "" {
		cfg.Harden = req.Harden
	}
	args := req.Args
	if args == nil {
		args = w.RefArgs
	}
	b, err := build(ctx, w.Src, cfg)
	if err != nil {
		return nil, err
	}
	res, err := b.RunCtx(ctx, args)
	if err != nil {
		return nil, err
	}
	// the echoed config carries the semantic inputs only: Workers is a
	// scheduling knob and VerifyPasses a diagnostic one; normalizing
	// both keeps the bytes identical across -workers values, server
	// replica sizes and verify-enabled requests
	cfg.Workers = 0
	cfg.VerifyPasses = false
	return &EvalResult{
		Workload: w.Name,
		Config:   cfg,
		Args:     args,
		Result:   res,
		Stats:    b.TotalStats(),
		Harden:   b.Harden,
	}, nil
}

// MarshalEval renders an EvalResult as canonical indented JSON with a
// trailing newline — the exact bytes both the CLI and the server emit.
func MarshalEval(res *EvalResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WorkloadInfo is the JSON shape of one registered kernel (GET
// /workloads); Src is omitted deliberately — it is an input to the
// service, not something it serves back.
type WorkloadInfo struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	ProfileArgs []int64 `json:"profileArgs"`
	RefArgs     []int64 `json:"refArgs"`
	FPHeavy     bool    `json:"fpHeavy"`
}

// ListWorkloads returns the registered kernels in presentation order.
func ListWorkloads() []WorkloadInfo {
	ws := workloads.All()
	out := make([]WorkloadInfo, len(ws))
	for i, w := range ws {
		out[i] = WorkloadInfo{
			Name: w.Name, Description: w.Description,
			ProfileArgs: w.ProfileArgs, RefArgs: w.RefArgs, FPHeavy: w.FPHeavy,
		}
	}
	return out
}

// PrintSensitivity renders the input-sensitivity table.
func PrintSensitivity(w io.Writer, rows []Sensitivity) {
	fmt.Fprintln(w, "Input sensitivity: trained on training input vs on the reference input")
	fmt.Fprintf(w, "%-8s %28s %28s %8s\n", "bench", "mismatched (checks/failed)", "matched (checks/failed)", "correct")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %17d / %-8d %17d / %-8d %8v\n",
			r.Name, r.MismatchChecks, r.MismatchFailed, r.MatchedChecks, r.MatchedFailed, r.OutputsCorrect)
	}
}
