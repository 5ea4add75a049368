// Package specheck is the speculation-soundness verifier: a static
// analysis over the compiler's own output that proves the pipeline upheld
// the paper's central contract — a speculatively ignored weak update
// (a χ without the s-flag) is safe only because code generation emits a
// matching ALAT check (ld.c) that repairs mis-speculation at run time.
//
// The checker has two analysis layers:
//
//   - Layer 1 (speculative SSA invariants, on IR): dominance-aware
//     def-dominates-use verification for every SSA version, phi
//     operand/predecessor correspondence, χ/μ list consistency against
//     the alias result (every may-def site of a virtual variable carries
//     a χ for it), flag-policy re-derivation (s-flags exactly where the
//     profile or heuristic put them), and advanced-load/check-load
//     pairing on the shared PRE temporary.
//
//   - Layer 2 (check-coverage dataflow, on machine code): a forward
//     dataflow pass over codegen's output proving that on every CFG path
//     each ld.a is followed by an ld.c on the same register before the
//     first use that crosses a potentially-aliasing store, and that no
//     check appears without a must-reaching advanced load in its
//     register. A separate memory-order snapshot proves the scheduler
//     never reordered memory operations or moved a store between a check
//     and the copy that consumes its value.
//
// Violations carry the pass that introduced the broken state plus the
// function/block (or machine instruction) they were found in, so a
// failing pipeline run names its culprit. The package deliberately
// re-derives expected state from first principles (alias result, profile,
// dominators, machine-op semantics) instead of reusing the transformation
// code it is checking.
package specheck

import (
	"fmt"
	"strings"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/profile"
)

// Violation is one broken speculation-soundness invariant, attributed to
// the pipeline pass that introduced it.
type Violation struct {
	// Pass names the pipeline stage after which the violation was
	// detected ("alias-annotate", "assign-flags", "ssapre-round-2",
	// "out-of-ssa", "schedule", "codegen", ...).
	Pass string
	// Func is the containing function.
	Func string
	// Block is the IR block id, or -1 when the violation is not tied to
	// an IR block (machine-code layer).
	Block int
	// Instr is the machine instruction index within the function, or -1
	// for IR-level violations.
	Instr int
	// Rule is a short stable identifier of the broken invariant
	// ("check-without-provider", "use-crosses-store", ...).
	Rule string
	// Msg is the human-readable description.
	Msg string
}

func (v Violation) String() string {
	loc := v.Func
	if v.Block >= 0 {
		loc = fmt.Sprintf("%s B%d", v.Func, v.Block)
	}
	if v.Instr >= 0 {
		loc = fmt.Sprintf("%s @%d", v.Func, v.Instr)
	}
	return fmt.Sprintf("[%s] %s: %s: %s", v.Pass, loc, v.Rule, v.Msg)
}

// Error aggregates the violations of one verification run; repro.CompileCtx
// surfaces it when Config.VerifyPasses is set and a pass broke an
// invariant.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	const max = 5
	var b strings.Builder
	fmt.Fprintf(&b, "specheck: %d violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i == max {
			fmt.Fprintf(&b, "; ... and %d more", len(e.Violations)-max)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// AsError wraps a violation list into an *Error, or returns nil for an
// empty list.
func AsError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return &Error{Violations: vs}
}

// Env carries the analysis context Layer 1 re-derives expectations from:
// the whole-program alias result and the exact (profile, mode, policy)
// triple core.AssignFlagsTiered ran with. Prof is nil outside the
// profile-guided modes (and the empty profile under aggressive
// promotion, matching the pipeline). Policy is consulted only under
// core.ModeCost; the zero value is replaced by core.DefaultPolicy(), so
// callers that never touch ModeCost need not set it.
type Env struct {
	Alias  *alias.Result
	Prof   *profile.Profile
	Mode   core.Mode
	Policy core.Policy
	// FnOverrides mirrors the per-function tier overrides the pipeline
	// assigned flags with (core.AssignFlagsTiered): functions named here
	// are re-derived under their own mode and policy instead of
	// Mode/Policy. Nil when the whole program compiled at one tier.
	FnOverrides map[string]core.FnOverride
}

// policy returns the expected-cost policy to re-derive ModeCost flags
// with, defaulting the zero value.
func (e *Env) policy() core.Policy {
	if e.Policy == (core.Policy{}) {
		return core.DefaultPolicy()
	}
	return e.Policy
}

// fnModePolicy returns the (mode, policy) pair the pipeline assigned
// fn's flags under: its override when re-tiered, the program-wide pair
// otherwise.
func (e *Env) fnModePolicy(fn string) (core.Mode, core.Policy) {
	if ov, ok := e.FnOverrides[fn]; ok {
		return ov.Mode, ov.Policy
	}
	return e.Mode, e.policy()
}
