// Package adaptive is the online tier-management runtime: it watches the
// per-function speculation counters of served evaluations, folds them
// into windowed check-failure rates, and walks each function down a
// tier ladder (and back up) so a workload whose alias behaviour drifts
// away from its training profile stops paying mis-speculation recovery
// penalties without giving up speculation everywhere.
//
// The subsystem splits three concerns:
//
//   - the monitor (fnState.observe) accumulates counters into windows
//     and turns a closed window into a failure rate;
//   - the policy (Policy + the state machine in observe) decides tier
//     transitions with hysteresis — a dead band between the demotion
//     and promotion thresholds, and an exponentially growing probation
//     budget of clean windows before re-promotion — so an oscillating
//     failure rate cannot make a function flap between tiers;
//   - the recompiler (Manager) rebuilds the function's speculation
//     flags at the new tier, verifies the result with specheck, and
//     hot-swaps the published assignment atomically.
//
// Tiers map onto repro.Config.FnSpec overrides, so a re-tiered build is
// an ordinary compile whose cache key (source, config) already encodes
// the tier vector: re-tiered artifacts are content-addressed and flow
// through the same local/remote cache tiers as every other compile.
package adaptive

import (
	"fmt"
	"sort"
	"strings"

	"repro"
)

// Tier is one rung of the speculation ladder, ordered from most to
// least aggressive. Demotion moves one step toward TierNone, promotion
// one step back toward TierAggressive.
type Tier int

const (
	// TierAggressive leaves the function on the serving config's own
	// speculation mode (no override; for the adaptive server that is
	// the profile- or cost-guided global walk).
	TierAggressive Tier = iota
	// TierCautious re-runs the cost policy with a high recovery
	// weighting (HighThreshold), keeping only sites whose training
	// alias probability is far below break-even.
	TierCautious
	// TierProfile speculates only sites the training run never saw
	// alias (probability zero).
	TierProfile
	// TierNone turns data speculation off for the function entirely.
	TierNone
)

// HighThreshold is the SpecCost recovery weighting TierCautious
// compiles with: recovery cycles count 16x, so only sites whose
// training alias probability sits far below the theta=1 break-even
// survive demotion.
const HighThreshold = 16

var tierNames = [...]string{"aggressive", "cautious", "profile", "none"}

func (t Tier) String() string {
	if t < 0 || int(t) >= len(tierNames) {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// TierByName maps the wire spelling ("aggressive", "cautious",
// "profile", "none") back to its Tier.
func TierByName(name string) (Tier, bool) {
	for i, n := range tierNames {
		if n == name {
			return Tier(i), true
		}
	}
	return 0, false
}

// FnSpec returns the per-function compile override the tier stands
// for, and whether one is needed at all: TierAggressive reports false
// (the function runs on the serving config unmodified).
func (t Tier) FnSpec() (repro.FnSpec, bool) {
	switch t {
	case TierCautious:
		return repro.FnSpec{Spec: repro.SpecCost, SpecThreshold: HighThreshold}, true
	case TierProfile:
		return repro.FnSpec{Spec: repro.SpecProfile}, true
	case TierNone:
		return repro.FnSpec{}, true // zero value: SpecOff
	default:
		return repro.FnSpec{}, false
	}
}

// FnSpecs converts a published tier assignment (function name ->
// tier name, as carried by Assignment.Tiers and the evaluate API's
// fnTiers field) into the repro.Config.FnSpec override map. Functions
// at "aggressive" need no override and are dropped; an empty result is
// returned as nil so the config marshals identically to an untier'd
// one. Unknown tier names are an error.
func FnSpecs(tiers map[string]string) (map[string]repro.FnSpec, error) {
	var out map[string]repro.FnSpec
	for fn, name := range tiers {
		t, ok := TierByName(name)
		if !ok {
			return nil, fmt.Errorf("adaptive: unknown tier %q for function %q", name, fn)
		}
		fs, need := t.FnSpec()
		if !need {
			continue
		}
		if out == nil {
			out = make(map[string]repro.FnSpec)
		}
		out[fn] = fs
	}
	return out, nil
}

// tierVector renders an assignment as a canonical sorted string for
// the manager's verified set and logs.
func tierVector(tiers map[string]string) string {
	if len(tiers) == 0 {
		return ""
	}
	parts := make([]string, 0, len(tiers))
	for fn, t := range tiers {
		parts = append(parts, fn+"="+t)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Policy holds the monitor's windowing and hysteresis knobs. The zero
// value means "use the defaults" (each field independently).
type Policy struct {
	// WindowChecks closes a function's window once this many check
	// loads accumulated. <=0 means 256.
	WindowChecks int64
	// WindowEvals closes the window after this many evaluations even
	// without check traffic, so a function demoted to TierNone (which
	// retires no checks) still ticks toward re-promotion. <=0 means 4.
	WindowEvals int
	// MinChecks is the minimum check count for a window's failure rate
	// to count as signal; windows below it are treated as clean. <=0
	// means 32.
	MinChecks int64
	// DemoteAbove is the failure rate above which a window demotes the
	// function one tier. <=0 means 0.2.
	DemoteAbove float64
	// PromoteBelow is the failure rate below which a window counts as
	// clean; rates in the dead band (PromoteBelow..DemoteAbove) reset
	// the clean run without demoting. <=0 means 0.05.
	PromoteBelow float64
	// Probation is the number of consecutive clean windows required
	// before the first re-promotion; each further demotion doubles the
	// function's budget up to ProbationCap, so a flapping function
	// promotes exponentially rarely. <=0 means 1.
	Probation int
	// ProbationCap bounds the doubling. <=0 means 32.
	ProbationCap int
}

func (p Policy) withDefaults() Policy {
	if p.WindowChecks <= 0 {
		p.WindowChecks = 256
	}
	if p.WindowEvals <= 0 {
		p.WindowEvals = 4
	}
	if p.MinChecks <= 0 {
		p.MinChecks = 32
	}
	if p.DemoteAbove <= 0 {
		p.DemoteAbove = 0.2
	}
	if p.PromoteBelow <= 0 {
		p.PromoteBelow = 0.05
	}
	if p.Probation <= 0 {
		p.Probation = 1
	}
	if p.ProbationCap <= 0 {
		p.ProbationCap = 32
	}
	return p
}

// Transition is one published tier change of one function.
type Transition struct {
	Fn   string `json:"fn"`
	From Tier   `json:"-"`
	To   Tier   `json:"-"`
}

func (t Transition) String() string {
	return fmt.Sprintf("%s: %s -> %s", t.Fn, t.From, t.To)
}

// fnState is the per-function monitor: window accumulators plus the
// hysteresis state of the policy state machine.
type fnState struct {
	tier      Tier
	checksW   int64 // checks accumulated in the open window
	failedW   int64 // failed checks in the open window
	evalsW    int   // evaluations folded into the open window
	cleanRun  int   // consecutive clean windows since the last reset
	probation int   // clean windows required per promotion (doubles on demote)
}

// observe folds one evaluation's counters into the open window and, if
// the window closed, runs the policy state machine. It returns the
// transition it decided on, if any.
func (s *fnState) observe(p Policy, checks, failed int64) (Transition, bool) {
	s.checksW += checks
	s.failedW += failed
	s.evalsW++
	if s.checksW < p.WindowChecks && s.evalsW < p.WindowEvals {
		return Transition{}, false
	}
	wChecks, wFailed := s.checksW, s.failedW
	s.checksW, s.failedW, s.evalsW = 0, 0, 0
	var rate float64
	if wChecks > 0 {
		rate = float64(wFailed) / float64(wChecks)
	}
	switch {
	case wChecks >= p.MinChecks && rate > p.DemoteAbove:
		s.cleanRun = 0
		if s.tier >= TierNone {
			return Transition{}, false
		}
		if s.probation == 0 {
			s.probation = p.Probation
		} else if s.probation < p.ProbationCap {
			s.probation *= 2
			if s.probation > p.ProbationCap {
				s.probation = p.ProbationCap
			}
		}
		from := s.tier
		s.tier++
		return Transition{From: from, To: s.tier}, true
	case wChecks < p.MinChecks || rate < p.PromoteBelow:
		if s.tier == TierAggressive {
			return Transition{}, false
		}
		s.cleanRun++
		need := s.probation
		if need == 0 {
			need = p.Probation
		}
		if s.cleanRun < need {
			return Transition{}, false
		}
		s.cleanRun = 0
		from := s.tier
		s.tier--
		return Transition{From: from, To: s.tier}, true
	default:
		// Dead band: not bad enough to demote, not clean enough to
		// count toward promotion. Restart the clean run.
		s.cleanRun = 0
		return Transition{}, false
	}
}
