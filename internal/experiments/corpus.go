package experiments

// Corpus mode: speculation statistics over a directory of MiniC
// programs instead of one kernel. Every file is compiled with
// profile-guided speculation, its counted alias profile is folded into
// per-alias-pattern tallies (an alias pattern is a reference-site kind
// plus the storage-class signature of the LOCs it touched, e.g.
// "load:heap" or "store:global+heap"), and the optimized build runs
// once on the machine model for the paper's check/miss counters. The
// aggregate report is the corpus-scale view the single-workload tables
// cannot give: how often speculation opportunities of each shape occur
// in the wild, how probable their aliases are (AliasProb histograms),
// and what the expected-cost policy would decide about them across the
// whole θ grid.
//
// Determinism contract: per-file results carry only integer tallies,
// the aggregate is a pointwise integer sum (order-independent), and
// every float in the report is derived from summed integers at render
// time — so the report bytes are identical at any worker count, cold
// or warm.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
)

// CorpusFile is one MiniC source in a corpus: an opaque display name
// (the walk uses the slash-separated path relative to the corpus root)
// plus the full source text. Analysis is keyed by content, never name.
type CorpusFile struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// corpusExts are the file extensions LoadCorpusDir treats as MiniC
// sources.
var corpusExts = map[string]bool{".c": true, ".minic": true, ".mc": true}

// LoadCorpusDir walks root and returns every MiniC source under it,
// sorted by name so every caller sees the same corpus order.
func LoadCorpusDir(root string) ([]CorpusFile, error) {
	var files []CorpusFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !corpusExts[filepath.Ext(d.Name())] {
			return nil
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		files = append(files, CorpusFile{Name: filepath.ToSlash(rel), Source: string(src)})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus walk: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("experiments: no MiniC sources under %s", root)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// Corpus sources carry their inputs as directive comments — the corpus
// analogue of a registered workload's ProfileArgs/RefArgs:
//
//	// profile-args: 32 2
//	// ref-args: 128 6
//
// Absent directives mean the program takes no arguments.
func corpusArgs(src, directive string) ([]int64, error) {
	prefix := "// " + directive + ":"
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, prefix))
		args := make([]int64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("experiments: bad %s directive %q: %w", directive, f, err)
			}
			args[i] = v
		}
		return args, nil
	}
	return nil, nil
}

// probBucketTops are the upper bounds of the AliasProb histogram.
// Profiled (site, LOC) pairs always have p > 0 (a member was observed
// at least once), so the buckets span (0, 1]; the last two separate
// "aliases sometimes" from "aliases always", the line between
// speculation that needs the cost model and speculation that is simply
// wrong.
var probBucketTops = []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0 / 2}

// ProbBucketLabels names the AliasProb histogram buckets, index-aligned
// with CorpusPatternStats.ProbHist.
func ProbBucketLabels() []string {
	return []string{"(0,1/64]", "(1/64,1/16]", "(1/16,1/4]", "(1/4,1/2]", "(1/2,1)", "1"}
}

func probBucket(p float64) int {
	for i, top := range probBucketTops {
		if p <= top {
			return i
		}
	}
	if p < 1 {
		return len(probBucketTops)
	}
	return len(probBucketTops) + 1
}

// PolicyCount tallies the expected-cost policy's verdicts over the
// (site, LOC) pairs of one alias pattern at one threshold.
type PolicyCount struct {
	Speculate uint64 `json:"speculate"`
	Block     uint64 `json:"block"`
}

// CorpusPatternStats are one alias pattern's integer tallies. All
// fields sum pointwise across files (AggregateCorpus), which is what
// makes the report order-independent.
type CorpusPatternStats struct {
	// Sites counts the static reference sites of this pattern.
	Sites uint64 `json:"sites"`
	// Execs sums the sites' dynamic execution counts (SiteTotal).
	Execs uint64 `json:"execs"`
	// Pairs counts profiled (site, LOC) pairs — the units the flag
	// policy decides over.
	Pairs uint64 `json:"pairs"`
	// PairObs sums the LOC observation counts over those pairs; the
	// aggregate alias probability PairObs/Execs derives from it.
	PairObs uint64 `json:"pairObs"`
	// ProbHist is the AliasProb histogram over pairs, index-aligned
	// with ProbBucketLabels.
	ProbHist []uint64 `json:"probHist"`
	// Policy maps a θ label (DefaultThresholds) to the cost-model
	// verdict tally over the pattern's pairs.
	Policy map[string]*PolicyCount `json:"policy"`
}

func newPatternStats() *CorpusPatternStats {
	s := &CorpusPatternStats{
		ProbHist: make([]uint64, len(probBucketTops)+2),
		Policy:   map[string]*PolicyCount{},
	}
	for _, th := range DefaultThresholds() {
		s.Policy[thresholdLabel(th)] = &PolicyCount{}
	}
	return s
}

func thresholdLabel(th float64) string { return strconv.FormatFloat(th, 'g', -1, 64) }

// CorpusFileResult is one file's integer tallies: the alias-pattern
// statistics from its counted profile plus the machine counters of one
// reference run of the speculative build.
type CorpusFileResult struct {
	Name         string                         `json:"name"`
	Funcs        int                            `json:"funcs"`
	LoadsRetired int64                          `json:"loadsRetired"`
	CheckLoads   int64                          `json:"checkLoads"`
	FailedChecks int64                          `json:"failedChecks"`
	Cycles       int64                          `json:"cycles"`
	Patterns     map[string]*CorpusPatternStats `json:"patterns"`
}

func locKindName(k profile.LocKind) string {
	switch k {
	case profile.LocGlobal:
		return "global"
	case profile.LocLocal:
		return "local"
	case profile.LocHeap:
		return "heap"
	}
	return "loc?"
}

// patternOf names the alias pattern of one site: its kind plus the
// sorted, deduplicated storage-class signature of the LOCs it touched.
func patternOf(kind string, set profile.LocSet) string {
	seen := map[string]bool{}
	for l, n := range set {
		if n > 0 {
			seen[locKindName(l.Kind)] = true
		}
	}
	if len(seen) == 0 {
		return kind + ":none"
	}
	classes := make([]string, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return kind + ":" + strings.Join(classes, "+")
}

// RunCorpusFileCtx analyzes one corpus source: compile with
// profile-guided speculation (training inputs from the source's
// directive comments), fold the counted alias profile into per-pattern
// tallies, and run the build once on the reference input for the
// check/miss counters. It compiles serially: RunCorpusDirCtx already
// runs one file per worker.
func RunCorpusFileCtx(ctx context.Context, file CorpusFile) (*CorpusFileResult, error) {
	profileArgs, err := corpusArgs(file.Source, "profile-args")
	if err != nil {
		return nil, err
	}
	refArgs, err := corpusArgs(file.Source, "ref-args")
	if err != nil {
		return nil, err
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: profileArgs, Workers: 1, VerifyPasses: verifyPasses.Load()}
	c, err := repro.CompileCtx(ctx, file.Source, cfg)
	if err != nil {
		return nil, err
	}
	if c.ProfileErr != nil {
		return nil, c.ProfileErr
	}
	res, err := c.RunCtx(ctx, refArgs)
	if err != nil {
		return nil, err
	}

	out := &CorpusFileResult{
		Name:         file.Name,
		Funcs:        len(c.Prog.Funcs),
		LoadsRetired: res.Counters.LoadsRetired,
		CheckLoads:   res.Counters.CheckLoads,
		FailedChecks: res.Counters.FailedChecks,
		Cycles:       res.Counters.Cycles,
		Patterns:     map[string]*CorpusPatternStats{},
	}
	policies := make([]core.Policy, len(DefaultThresholds()))
	labels := make([]string, len(policies))
	for i, th := range DefaultThresholds() {
		policies[i] = core.PolicyFor(machine.Config{}, th)
		labels[i] = thresholdLabel(th)
	}
	fold := func(kind string, sets map[int]profile.LocSet) {
		for site, set := range sets {
			pat := out.Patterns[patternOf(kind, set)]
			if pat == nil {
				pat = newPatternStats()
				out.Patterns[patternOf(kind, set)] = pat
			}
			total := c.Profile.Total(site)
			pat.Sites++
			pat.Execs += total
			for _, n := range set {
				if n == 0 {
					continue
				}
				pat.Pairs++
				pat.PairObs += n
				p := core.AliasProb(n, total)
				pat.ProbHist[probBucket(p)]++
				for i, pol := range policies {
					if pol.Speculate(p, false) {
						pat.Policy[labels[i]].Speculate++
					} else {
						pat.Policy[labels[i]].Block++
					}
				}
			}
		}
	}
	fold("load", c.Profile.LoadLocs)
	fold("store", c.Profile.StoreLocs)
	fold("callmod", c.Profile.CallMod)
	fold("callref", c.Profile.CallRef)
	return out, nil
}

// CorpusFailure records one file the corpus run could not analyze; the
// rest of the corpus still aggregates. Error strings come from the
// pipeline itself, so failures too are byte-identical from run to run.
type CorpusFailure struct {
	Name  string `json:"name"`
	Error string `json:"error"`
}

// CorpusPatternAgg is one alias pattern's aggregate: the summed integer
// tallies plus floats derived from them at aggregation time (never
// summed across files — that would be order-dependent).
type CorpusPatternAgg struct {
	CorpusPatternStats
	// AliasProbability is the pattern's pooled p(alias):
	// PairObs/Execs, clamped to 1 (call-site observations can exceed
	// the call count).
	AliasProbability float64 `json:"aliasProbability"`
	// SpeculateFrac maps a θ label to the fraction of pairs the policy
	// would speculate at that threshold.
	SpeculateFrac map[string]float64 `json:"speculateFrac"`
}

// CorpusReport is the corpus-wide aggregate (`experiments -exp corpus
// -json` emits it).
type CorpusReport struct {
	Files    int             `json:"files"`
	Analyzed int             `json:"analyzed"`
	Failed   []CorpusFailure `json:"failed,omitempty"`

	Funcs        int   `json:"funcs"`
	LoadsRetired int64 `json:"loadsRetired"`
	CheckLoads   int64 `json:"checkLoads"`
	FailedChecks int64 `json:"failedChecks"`
	Cycles       int64 `json:"cycles"`
	// CheckRatio and MissRatio are the paper's Fig. 11 quantities
	// pooled over the corpus: check loads over loads retired, failed
	// checks over check loads.
	CheckRatio float64 `json:"checkRatio"`
	MissRatio  float64 `json:"missRatio"`

	ProbBuckets []string                     `json:"probBuckets"`
	Patterns    map[string]*CorpusPatternAgg `json:"patterns"`
}

// AggregateCorpus folds per-file results and failures into the corpus
// report. The fold is pointwise integer summation, so any arrival order
// produces identical bytes; results and failures are re-sorted by name
// to make that true for the failure list as well.
func AggregateCorpus(results []*CorpusFileResult, failures []CorpusFailure) *CorpusReport {
	rep := &CorpusReport{
		Files:       len(results) + len(failures),
		Analyzed:    len(results),
		ProbBuckets: ProbBucketLabels(),
		Patterns:    map[string]*CorpusPatternAgg{},
	}
	rep.Failed = append(rep.Failed, failures...)
	sort.Slice(rep.Failed, func(i, j int) bool { return rep.Failed[i].Name < rep.Failed[j].Name })
	for _, r := range results {
		rep.Funcs += r.Funcs
		rep.LoadsRetired += r.LoadsRetired
		rep.CheckLoads += r.CheckLoads
		rep.FailedChecks += r.FailedChecks
		rep.Cycles += r.Cycles
		for name, ps := range r.Patterns {
			agg := rep.Patterns[name]
			if agg == nil {
				agg = &CorpusPatternAgg{CorpusPatternStats: *newPatternStats()}
				rep.Patterns[name] = agg
			}
			agg.Sites += ps.Sites
			agg.Execs += ps.Execs
			agg.Pairs += ps.Pairs
			agg.PairObs += ps.PairObs
			for i, n := range ps.ProbHist {
				if i < len(agg.ProbHist) {
					agg.ProbHist[i] += n
				}
			}
			for th, pc := range ps.Policy {
				apc := agg.Policy[th]
				if apc == nil {
					apc = &PolicyCount{}
					agg.Policy[th] = apc
				}
				apc.Speculate += pc.Speculate
				apc.Block += pc.Block
			}
		}
	}
	if rep.LoadsRetired > 0 {
		rep.CheckRatio = float64(rep.CheckLoads) / float64(rep.LoadsRetired)
	}
	if rep.CheckLoads > 0 {
		rep.MissRatio = float64(rep.FailedChecks) / float64(rep.CheckLoads)
	}
	for _, agg := range rep.Patterns {
		agg.AliasProbability = core.AliasProb(agg.PairObs, agg.Execs)
		agg.SpeculateFrac = map[string]float64{}
		for th, pc := range agg.Policy {
			if n := pc.Speculate + pc.Block; n > 0 {
				agg.SpeculateFrac[th] = float64(pc.Speculate) / float64(n)
			} else {
				agg.SpeculateFrac[th] = 0
			}
		}
	}
	return rep
}

// RunCorpusDirCtx is the corpus run: load the directory, analyze every
// file (bounded by workers), aggregate.
func RunCorpusDirCtx(ctx context.Context, dir string, workers int) (*CorpusReport, error) {
	files, err := LoadCorpusDir(dir)
	if err != nil {
		return nil, err
	}
	results := make([]*CorpusFileResult, len(files))
	fails := make([]*CorpusFailure, len(files))
	err = par.EachCtx(ctx, workers, len(files), func(i int) error {
		res, err := RunCorpusFileCtx(ctx, files[i])
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err() // a cancelled run is cancelled, not a per-file failure
			}
			fails[i] = &CorpusFailure{Name: files[i].Name, Error: err.Error()}
			return nil
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ok []*CorpusFileResult
	var failed []CorpusFailure
	for i := range files {
		if results[i] != nil {
			ok = append(ok, results[i])
		}
		if fails[i] != nil {
			failed = append(failed, *fails[i])
		}
	}
	return AggregateCorpus(ok, failed), nil
}

// MarshalCorpusReport renders the aggregate report as canonical
// indented JSON with a trailing newline — the bytes the cold-vs-warm
// and worker-count identities are asserted over.
func MarshalCorpusReport(rep *CorpusReport) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PrintCorpusReport renders the report as text tables.
func PrintCorpusReport(w io.Writer, rep *CorpusReport) {
	fmt.Fprintf(w, "Corpus: %d files, %d analyzed, %d failed, %d functions\n",
		rep.Files, rep.Analyzed, len(rep.Failed), rep.Funcs)
	fmt.Fprintf(w, "machine: %d cycles, %d loads, check ratio %.4f, miss ratio %.4f\n",
		rep.Cycles, rep.LoadsRetired, rep.CheckRatio, rep.MissRatio)
	for _, f := range rep.Failed {
		fmt.Fprintf(w, "  FAILED %-24s %s\n", f.Name, f.Error)
	}
	names := make([]string, 0, len(rep.Patterns))
	for n := range rep.Patterns {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-24s %7s %10s %7s %8s  %s\n", "pattern", "sites", "execs", "pairs", "p(alias)", "prob histogram "+strings.Join(rep.ProbBuckets, " "))
	for _, n := range names {
		a := rep.Patterns[n]
		hist := make([]string, len(a.ProbHist))
		for i, h := range a.ProbHist {
			hist[i] = strconv.FormatUint(h, 10)
		}
		fmt.Fprintf(w, "%-24s %7d %10d %7d %8.4f  [%s]\n", n, a.Sites, a.Execs, a.Pairs, a.AliasProbability, strings.Join(hist, " "))
	}
	fmt.Fprintf(w, "\ncost-policy speculate fraction by θ:\n")
	fmt.Fprintf(w, "%-24s", "pattern")
	for _, th := range DefaultThresholds() {
		fmt.Fprintf(w, " %7s", "θ="+thresholdLabel(th))
	}
	fmt.Fprintln(w)
	for _, n := range names {
		a := rep.Patterns[n]
		fmt.Fprintf(w, "%-24s", n)
		for _, th := range DefaultThresholds() {
			fmt.Fprintf(w, " %7.3f", a.SpeculateFrac[thresholdLabel(th)])
		}
		fmt.Fprintln(w)
	}
}
