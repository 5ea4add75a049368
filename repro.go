// Package repro is the public API of the speculative-compilation
// framework, a reproduction of Lin et al., "A Compiler Framework for
// Speculative Analysis and Optimizations" (PLDI 2003).
//
// The pipeline compiles MiniC source through alias analysis, alias/edge
// profiling, the speculative SSA form, speculative SSAPRE (partial
// redundancy elimination, register promotion, strength reduction), and
// code generation for an EPIC-style virtual machine with an ALAT, whose
// performance counters reproduce the paper's measurements.
//
// Typical use:
//
//	ctx := context.Background()
//	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{100}})
//	res, err := c.RunCtx(ctx, []int64{1000})
//	fmt.Println(res.Output, res.Counters.LoadsRetired)
package repro

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alias"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
)

// SpecMode selects the data-speculation flag source.
type SpecMode int

const (
	// SpecOff disables data speculation (the paper's O3 baseline:
	// non-speculative PRE over type-based alias analysis).
	SpecOff SpecMode = iota
	// SpecProfile drives speculation from an alias-profiling run
	// (paper §3.2.1).
	SpecProfile
	// SpecHeuristic drives speculation from the three heuristic rules
	// (paper §3.2.2); no alias profile is needed.
	SpecHeuristic
	// SpecCost drives speculation from alias probabilities: a site's
	// weak updates stay ignorable only while the expected recovery cost
	// (p(alias) × check-miss latency) is below the expected savings
	// ((1−p) × cycles saved by promotion). Probabilities come from the
	// counted alias profile; the cost terms from Config.Machine; the
	// break-even point shifts with Config.SpecThreshold.
	SpecCost
)

func (m SpecMode) String() string {
	switch m {
	case SpecOff:
		return "off"
	case SpecProfile:
		return "profile"
	case SpecHeuristic:
		return "heuristic"
	case SpecCost:
		return "cost"
	}
	return "specmode?"
}

func (m SpecMode) valid() bool { return m >= SpecOff && m <= SpecCost }

// ErrInvalidConfig marks a Config that names something the pipeline
// does not have: an out-of-range Spec or FnSpec[*].Spec, an unknown
// Harden policy, or an FnSpec key that names no function of the
// program. CompileCtx and BuildCtx wrap it, so a caller can tell a bad
// request from a failed compilation (specd answers it with 400).
var ErrInvalidConfig = errors.New("invalid config")

func invalidConfigf(format string, args ...any) error {
	return fmt.Errorf("repro: %w: "+format, append([]any{ErrInvalidConfig}, args...)...)
}

// check rejects the config errors visible without the program; the
// FnSpec keys are checked against the program by checkFnSpec.
func (cfg *Config) check() error {
	if !cfg.Spec.valid() {
		return invalidConfigf("Spec %d out of range", int(cfg.Spec))
	}
	for name, fs := range cfg.FnSpec {
		if !fs.Spec.valid() {
			return invalidConfigf("FnSpec[%q].Spec %d out of range", name, int(fs.Spec))
		}
	}
	if cfg.Harden != "" {
		if _, err := harden.ParsePolicy(cfg.Harden); err != nil {
			return invalidConfigf("%v", err)
		}
	}
	return nil
}

// checkFnSpec rejects an FnSpec key that names no function of prog: an
// override that silently applies to nothing is a caller's mistake.
func (cfg *Config) checkFnSpec(prog *ir.Program) error {
	for name := range cfg.FnSpec {
		if prog.FuncMap[name] == nil {
			return invalidConfigf("FnSpec names no function %q", name)
		}
	}
	return nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (m SpecMode) coreMode() core.Mode {
	switch m {
	case SpecProfile:
		return core.ModeProfile
	case SpecHeuristic:
		return core.ModeHeuristic
	case SpecCost:
		return core.ModeCost
	}
	return core.ModeNone
}

// Config controls a compilation.
type Config struct {
	// Spec selects the data-speculation mode.
	Spec SpecMode
	// NoControlSpec disables profile-guided control speculation
	// (insertion at non-down-safe Φs), which is otherwise on whenever
	// the optimizer runs (it is part of the paper's baseline SSAPRE).
	NoControlSpec bool
	// OptimizeOff disables PRE entirely (unoptimized code, for limit
	// studies and debugging).
	OptimizeOff bool
	// NoArith restricts PRE to loads only (register promotion alone).
	NoArith bool
	// NoStrength disables the strength-reduction / LFTR client.
	NoStrength bool
	// NoTypeBasedAA disables type-based alias disambiguation (ablation;
	// the paper's baseline includes it).
	NoTypeBasedAA bool
	// SpecThreshold scales the recovery side of the SpecCost break-even
	// test: a site speculates while (1−p)·saved > threshold·p·recover.
	// 1 is the neutral cost model; larger values demand better odds
	// before speculating; <=0 means 1. Ignored outside SpecCost.
	SpecThreshold float64
	// ProfileArgs is the training input for the alias/edge profiling run
	// (used by SpecProfile and for edge profiles; when profiling fails
	// or is skipped, a static Ball-Larus-style estimate is used).
	ProfileArgs []int64
	// ProfileJSON, when non-empty, supplies a previously collected
	// profile (from CollectProfileCtx or `aliasprof -o`) instead of running
	// the training input at compile time — the paper's separate
	// profile-then-recompile feedback workflow. It is untrusted input:
	// CompileCtx decodes it with profile.Unmarshal, which drops blocks
	// and variables that do not resolve against the program. A compile
	// that profiles itself never serializes its profile.
	ProfileJSON []byte
	// Rounds overrides the number of PRE rounds (<=0 means 8).
	Rounds int
	// Schedule enables the latency-driven list scheduler (the
	// instruction-scheduling client of the paper's Fig. 3). Its effect
	// is visible under the pipelined VM timing model
	// (Machine.Pipelined).
	Schedule bool
	// Machine tunes the VM model; zero value uses machine.Defaults().
	Machine machine.Config
	// AggressivePromotion treats every chi as ignorable (no profile
	// consultation) — the paper's Fig. 12 "aggressive register
	// promotion" upper bound. Implies data speculation with empty
	// profiles.
	AggressivePromotion bool
	// Workers bounds the per-function parallelism of the pipeline
	// (alias refinement/annotation, SSAPRE, IR verification, scheduling
	// and code generation). 0 uses one worker per core; 1 reproduces the
	// fully serial pipeline bit-for-bit and is the determinism oracle
	// the parallel paths are tested against.
	Workers int
	// VerifyPasses runs the speculation-soundness checker
	// (internal/specheck) after every pipeline stage — alias annotation,
	// flag assignment, each SSAPRE round, out-of-SSA, scheduling and code
	// generation — attributing any violation to the stage that introduced
	// it. Compilation fails with a *specheck.Error on the first dirty
	// stage. Roughly doubles compile time; meant for CI, debugging and
	// the `-verify-passes` / speclint surfaces.
	VerifyPasses bool
	// Harden selects a speculative-leak mitigation policy ("fence" or
	// "hoist", see internal/harden) applied to the generated code after
	// codegen: every sink specheck's Layer 3 taint analysis reports — a
	// load/store address or branch condition fed by a
	// speculatively-loaded, not-yet-checked value — is closed by a
	// fence or a hoisted duplicate check, and Layer 3 is re-run to
	// prove zero residual leaks (a residual is a compile error). Empty
	// means no hardening. The mitigation changes generated code, so it
	// participates in trace fingerprints and cache keys automatically.
	Harden string `json:",omitempty"`
	// FnSpec overrides the speculation mode per function (keyed by
	// function name): the named function's chi/mu flags are assigned
	// under its own mode and threshold instead of the program-wide Spec
	// and SpecThreshold, so one function can be pinned to less (or no)
	// speculation without touching the rest of the program. Every key
	// must name a function of the program. Flag assignment is a
	// per-symbol decision baked into the IR before the speculative walk
	// runs, so the override is sound under any profile-guided global
	// Spec; under SpecOff or SpecHeuristic the global walk mode ignores
	// profile flags and overrides have no effect. Functions absent from
	// the map compile at the program-wide mode.
	FnSpec map[string]FnSpec `json:",omitempty"`
}

// FnSpec is one function's speculation-tier override (see
// Config.FnSpec). The zero value means SpecOff: every update flagged,
// no data speculation in the function.
type FnSpec struct {
	// Spec is the function's flag-assignment mode.
	Spec SpecMode `json:",omitempty"`
	// SpecThreshold scales the recovery side of the function's
	// break-even test, exactly as Config.SpecThreshold does globally.
	// Ignored unless Spec is SpecCost; <=0 means 1.
	SpecThreshold float64 `json:",omitempty"`
}

// Build is the compiled artifact serving needs: machine code, optimizer
// statistics and the reports of the optional passes — and no IR. It is
// immutable once returned, so one Build is safely shared by every
// concurrent caller (BuildCtx memoizes it per source and config).
type Build struct {
	// Config is the configuration the build was compiled under, with
	// Workers zeroed (it shapes scheduling, never the result). Its
	// slices and map are shared with the compiling caller's Config and
	// must be treated as read-only.
	Config Config
	Code   *machine.Program
	Stats  map[string]*ssapre.Stats
	// ProfileErr records a failed training run: the profiling
	// interpreter faulted on Config.ProfileArgs and the compilation fell
	// back to the static Ball-Larus estimate with no alias profile.
	// CompileCtx itself still succeeds (the fallback is well-defined),
	// but profile-guided measurements are meaningless under it, so the
	// experiments treat a non-nil ProfileErr as fatal.
	ProfileErr error
	// Harden reports what the leak-mitigation pass did (nil unless
	// Config.Harden was set): leaks found, fences inserted, checks
	// hoisted, and the residual count (always zero on success).
	Harden *harden.Report `json:",omitempty"`
	// Functions is the number of functions in the program.
	Functions int

	fpOnce sync.Once
	fp     [32]byte // lazily computed Code fingerprint for trace keying
}

// Compilation is a Build plus the intermediate artifacts the experiments,
// the linters and the tests inspect: the source, the optimized IR, the
// alias analysis and the applied profile. Build's fields and methods
// (RunCtx, EvaluateCtx, TotalStats, ...) are promoted.
type Compilation struct {
	*Build
	Source string
	Prog   *ir.Program // optimized IR
	// Profile is the applied alias/edge profile (nil when profiling
	// failed or the optimizer was off). A profile from the training
	// run is the cache's entry, shared by every compile of its key:
	// read-only.
	Profile *profile.Profile
	Alias   *alias.Result
}

// The compilation cache (internal/cache) holds one entry per artifact:
// a pristine lowered program per source hash, the collected alias/edge
// profile (*profile.Profile) per (source, options, training-args) key,
// BuildCtx's immutable builds and the recorded machine traces, all in
// memory for the life of the process. CompileCtx, CollectProfileCtx,
// Reference and ReuseLimitCtx all start from the same parse, and an
// experiment sweep re-compiles each workload under many config variants,
// so N variants pay for one parse and one profiling interpreter run
// instead of N of each. Cached programs are never mutated — every caller
// receives a deep ir.Clone — and a cached profile names blocks and
// variables by name, not by pointer, so every compile of its key reads
// the one profile as it is; that is what makes sharing across concurrent
// compiles sound.
const compCacheCap = 512

var (
	compCache      = cache.New(compCacheCap)
	profilingRuns  atomic.Uint64
	buildsCompiled atomic.Uint64
)

// frontendCtx parses + lowers IR from source, memoized by source hash;
// the caller owns the returned clone outright. The cache lookup honors
// ctx.
func frontendCtx(ctx context.Context, src string) (*ir.Program, error) {
	key := cache.KeyOf([]byte("frontend"), []byte(src))
	v, err := compCache.GetCtx(ctx, key, func() (any, error) {
		f, err := source.Parse(src)
		if err != nil {
			return nil, err
		}
		return source.Lower(f)
	})
	if err != nil {
		return nil, err
	}
	return ir.Clone(v.(*ir.Program)), nil
}

// profileKey is the content-addressed key of a profiling run: source
// text, the options that shape reference-site ids and set contents
// (the TBAA flag), and the training input.
func profileKey(src string, cfg Config) cache.Key {
	opts := fmt.Sprintf("tbaa=%t", !cfg.NoTypeBasedAA)
	args := make([]byte, 8*len(cfg.ProfileArgs))
	for i, a := range cfg.ProfileArgs {
		binary.LittleEndian.PutUint64(args[i*8:], uint64(a))
	}
	return cache.KeyOf([]byte("profile"), []byte(src), []byte(opts), args)
}

// profileDataCtx returns the alias/edge profile for (src, options,
// training args), memoized in memory; callers must not modify it. The
// computation is canonical: frontend, the same flow-sensitive refinement
// CompileCtx applies (so reference-site ids line up), one profiling
// interpreter run. CompileCtx, CollectProfileCtx and every experiment
// variant share it, so a sweep pays for one interpreter run per key no
// matter how many variants it compiles.
func profileDataCtx(ctx context.Context, src string, cfg Config) (*profile.Profile, error) {
	v, err := compCache.GetCtx(ctx, profileKey(src, cfg), func() (any, error) {
		// the cache runs its owner's compute even under a done ctx; a
		// context error is never memoized, so refusing here is free
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		profilingRuns.Add(1)
		prog, err := frontendCtx(ctx, src)
		if err != nil {
			return nil, err
		}
		alias.RefineWorkers(prog, cfg.Workers)
		prof := profile.New()
		if _, err := interp.RunCtx(ctx, prog, interp.Options{
			CollectEdges: true, CollectAlias: true, Profile: prof, Args: cfg.ProfileArgs,
		}); err != nil {
			return nil, err
		}
		return prof, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*profile.Profile), nil
}

// ProfilingRuns counts the profiling interpreter runs actually executed
// (cache misses); sweeps assert "profile once" against its deltas.
func ProfilingRuns() uint64 { return profilingRuns.Load() }

// CacheStats snapshots the compilation cache's cumulative counters.
func CacheStats() cache.Stats { return compCache.Stats() }

// TraceCacheBytes reports the heap footprint of every
// *machine.Trace resident in the compilation cache, in bytes. The
// specd /metrics endpoint exposes it as the specd_trace_bytes gauge so
// operators can see what record-and-replay reuse costs in memory.
func TraceCacheBytes() int64 {
	return compCache.SumObjects(func(v any) int64 {
		if t, ok := v.(*machine.Trace); ok {
			return t.Bytes()
		}
		return 0
	})
}

// SetCacheEnabled turns compilation-pipeline memoization off or back on
// (default on). With the cache off every CompileCtx and BuildCtx
// re-parses, re-profiles and re-compiles from scratch — the oracle for
// cache-transparency tests.
func SetCacheEnabled(on bool) { compCache.SetEnabled(on) }

// ResetCaches drops the whole compilation cache (parses, profiles,
// builds and traces). Tests and benchmarks use it to measure cold
// starts.
func ResetCaches() { compCache.Reset() }

// CompileCtx runs the full pipeline on MiniC source. A ctx that is
// already done returns ctx.Err() before anything runs or is counted;
// the frontend and profiling cache lookups honor ctx (a caller waiting
// on another compile's in-flight work returns promptly), and the
// pipeline checks ctx at every phase boundary — refinement, profiling,
// SSAPRE, verification, scheduling, code generation — so a dropped
// client or an expired deadline stops the compilation at the next phase
// instead of running it to completion. A config that fails validation
// returns an error wrapping ErrInvalidConfig before the pipeline runs.
func CompileCtx(ctx context.Context, src string, cfg Config) (*Compilation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	buildsCompiled.Add(1)
	prog, err := frontendCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkFnSpec(prog); err != nil {
		return nil, err
	}
	norm := cfg
	norm.Workers = 0
	c := &Compilation{
		Build:  &Build{Config: norm, Functions: len(prog.Funcs)},
		Source: src, Prog: prog,
	}

	// verify surfaces specheck violations as a compile error; the
	// *specheck.Error stays reachable through errors.As for callers that
	// want the structured violation list (speclint, specd's counters).
	verify := func(vs []specheck.Violation) error {
		if err := specheck.AsError(vs); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
		return nil
	}

	if !cfg.OptimizeOff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// flow-sensitive refinement (paper Fig. 4): devirtualize
		// references whose address resolves to a single variable
		alias.RefineWorkers(prog, cfg.Workers)
		ar := alias.Analyze(prog, alias.Options{TypeBased: !cfg.NoTypeBasedAA})
		ar.AnnotateWorkers(prog, cfg.Workers)
		c.Alias = ar
		env := &specheck.Env{Alias: ar}
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckAnnotated(prog, env, "alias-annotate")); err != nil {
				return nil, err
			}
		}

		// a supplied profile, or the memoized training run: every
		// variant of a sweep that shares (source, options, training
		// args) reads one interpreter run's profile
		var prof *profile.Profile
		var perr error
		if len(cfg.ProfileJSON) > 0 {
			if prof, err = profile.Unmarshal(prog, cfg.ProfileJSON); err != nil {
				return nil, fmt.Errorf("repro: %w", err)
			}
		} else {
			prof, perr = profileDataCtx(ctx, src, cfg)
		}
		if isCtxErr(perr) {
			// cancellation is not a failed training run; surface it
			return nil, perr
		}
		if perr == nil {
			prof.ApplyEdges(prog)
			c.Profile = prof
		} else {
			// the training input faulted: fall back to the static
			// estimate, but record the failure — silently degrading
			// would skew every profile-guided measurement
			c.ProfileErr = fmt.Errorf("repro: profiling run failed: %w", perr)
			profile.StaticEstimate(prog)
		}

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mode := cfg.Spec.coreMode()
		flagProf := prof
		if cfg.AggressivePromotion {
			// ignore every alias: empty profile sets leave all chis weak
			mode = core.ModeProfile
			flagProf = profile.New()
		}
		pol := core.PolicyFor(cfg.Machine, cfg.SpecThreshold)
		var fnOv map[string]core.FnOverride
		if len(cfg.FnSpec) > 0 {
			fnOv = make(map[string]core.FnOverride, len(cfg.FnSpec))
			for name, fs := range cfg.FnSpec {
				fnOv[name] = core.FnOverride{
					Mode:   fs.Spec.coreMode(),
					Policy: core.PolicyFor(cfg.Machine, fs.SpecThreshold),
				}
			}
		}
		core.AssignFlagsTiered(prog, ar, flagProf, mode, pol, fnOv)
		env.Prof, env.Mode, env.Policy, env.FnOverrides = flagProf, mode, pol, fnOv
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckAnnotated(prog, env, "assign-flags")); err != nil {
				return nil, err
			}
			if err := verify(specheck.CheckFlags(prog, env, "assign-flags")); err != nil {
				return nil, err
			}
		}

		var verifyHook func(fn *ir.Func, pass string, inSSA bool) error
		if cfg.VerifyPasses {
			verifyHook = func(fn *ir.Func, pass string, inSSA bool) error {
				if inSSA {
					return verify(specheck.CheckSSAFunc(fn, pass))
				}
				return verify(specheck.CheckPostSSA(fn, pass))
			}
		}
		controlSpec := !cfg.NoControlSpec
		stats, err := ssapre.Run(prog, ssapre.Options{
			DataSpec:    mode,
			ControlSpec: controlSpec,
			Rounds:      cfg.Rounds,
			Alias:       ar,
			NoArith:     cfg.NoArith,
			NoStrength:  cfg.NoStrength,
			Workers:     cfg.Workers,
			VerifyHook:  verifyHook,
		})
		if err != nil {
			return nil, err
		}
		c.Stats = stats
		if err := par.EachCtx(ctx, cfg.Workers, len(prog.Funcs), func(i int) error {
			if err := ir.Verify(prog.Funcs[i]); err != nil {
				return fmt.Errorf("repro: optimizer produced invalid IR: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Schedule {
		var before specheck.MemOrder
		if cfg.VerifyPasses {
			before = specheck.SnapshotMemOrder(prog)
		}
		codegen.ScheduleWorkers(prog, cfg.Workers)
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckSchedule(prog, before, "schedule")); err != nil {
				return nil, err
			}
		}
	}
	code, err := codegen.LowerWorkers(prog, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.VerifyPasses {
		if err := verify(specheck.CheckMachine(code, "codegen")); err != nil {
			return nil, err
		}
	}
	if cfg.Harden != "" {
		pol, err := harden.ParsePolicy(cfg.Harden)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		rep, err := harden.Apply(code, pol)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		c.Harden = rep
		// prove zero residual leaks on every hardened build, verified
		// pipeline or not; a violation here is a mitigation bug
		if err := verify(specheck.CheckLeaks(code, "harden")); err != nil {
			return nil, err
		}
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckMachine(code, "harden")); err != nil {
				return nil, err
			}
		}
	}
	c.Code = code
	return c, nil
}

// buildKey is the content-addressed key of a build: the source and every
// field of cfg except Workers, which shapes scheduling only. Every
// semantic input — speculation mode and threshold, machine model,
// training input or supplied profile, per-function tiers, hardening and
// verification — is in the key, so a verified or hardened request is
// never answered from a build compiled without that option. ok is false
// when cfg has no JSON encoding (a NaN or infinite SpecThreshold); such
// a config is compiled without memoization.
func buildKey(src string, cfg Config) (key cache.Key, ok bool) {
	cfg.Workers = 0
	opts, err := json.Marshal(cfg)
	if err != nil {
		return cache.Key{}, false
	}
	return cache.KeyOf([]byte("build"), []byte(src), opts), true
}

// BuildCtx compiles src under cfg and returns the lean, IR-free Build —
// the artifact serving needs — memoized in memory by the compilation
// cache: a repeat of an earlier call's (source, config), whatever
// its Workers, returns the same *Build without running the pipeline
// (DESIGN.md §18). Concurrent callers of one key share one compile. Deterministic compile errors are
// memoized like results; context errors never are, so a cancelled
// caller cannot poison the key. SetCacheEnabled(false) makes every call
// compile, and ResetCaches drops every build. Callers that need the IR,
// the alias result or the profile use CompileCtx. An invalid config
// is rejected (ErrInvalidConfig) as CompileCtx rejects it.
func BuildCtx(ctx context.Context, src string, cfg Config) (*Build, error) {
	if err := cfg.check(); err != nil {
		return nil, err // before the lookup: a bad config takes no cache entry
	}
	compute := func() (any, error) {
		c, err := CompileCtx(ctx, src, cfg)
		if err != nil {
			return nil, err
		}
		return c.Build, nil
	}
	key, ok := buildKey(src, cfg)
	var v any
	var err error
	if ok {
		v, err = compCache.GetCtx(ctx, key, compute)
	} else {
		v, err = compute()
	}
	if err != nil {
		return nil, err
	}
	return v.(*Build), nil
}

// BuildsCompiled counts the pipeline runs: every CompileCtx call,
// including each build-cache miss of BuildCtx. A repeated request
// asserts a zero delta against it, as sweeps do against ProfilingRuns.
func BuildsCompiled() uint64 { return buildsCompiled.Load() }

// The machine-trace path: one functional machine.Record per (program
// fingerprint, args, resource limits) captures the architectural event
// stream, and every timing measurement becomes a cheap machine.Replay
// walk. Latencies, ALATSize and Pipelined are deliberately absent from
// the key — re-timing under them is exactly what replay is for, so a
// whole sensitivity sweep shares one recorded trace. Resource limits
// (MaxSteps, MaxCallDepth) and StackSlots are in the key because they
// change what the run does: a smaller limit faults, and the cache
// memoizes errors, so excluding them would poison larger-limit callers;
// StackSlots additionally shifts concrete addresses (Replay refuses a
// mismatch outright). A trace is one cache entry, the *machine.Trace as
// recorded.

// fingerprint returns the compiled program's content hash, computed
// once per Build.
func (b *Build) fingerprint() [32]byte {
	b.fpOnce.Do(func() { b.fp = b.Code.Fingerprint() })
	return b.fp
}

// traceFor returns the recorded architectural trace for (b.Code, args)
// under mcfg's memory layout and resource limits, recording it on the
// first request. A run that faults yields the functional engine's error
// (memoized like any other cache entry — sound because the limits are
// part of the key); a recording ctx stops is not memoized. The trace is
// recorded under exactly the normalized layout and limits it is keyed
// by, so it fits every Config sharing the key and replay never refuses
// it.
func (b *Build) traceFor(ctx context.Context, args []int64, mcfg machine.Config) (*machine.Trace, error) {
	n := mcfg.Normalized()
	fp := b.fingerprint()
	argb := make([]byte, 8*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint64(argb[i*8:], uint64(a))
	}
	lim := fmt.Sprintf("slots=%d steps=%d depth=%d", n.StackSlots, n.MaxSteps, n.MaxCallDepth)
	key := cache.KeyOf([]byte("trace"), fp[:], argb, []byte(lim))
	v, err := compCache.GetCtx(ctx, key, func() (any, error) {
		return machine.RecordCtx(ctx, b.Code, args, n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*machine.Trace), nil
}

// runMachine executes the compiled program under mcfg: the cached
// trace for its key, re-timed by machine.Replay.
func (b *Build) runMachine(ctx context.Context, args []int64, mcfg machine.Config) (*machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := b.traceFor(ctx, args, mcfg)
	if err != nil {
		// the recording run faulted under these limits
		return nil, err
	}
	return machine.Replay(b.Code, tr, mcfg, nil)
}

// RunCtx executes the compiled program on the EPIC VM through the
// record-and-replay trace path. The trace-cache lookup honors ctx (a
// caller waiting on another run's in-flight recording returns promptly
// when cancelled) and a done ctx stops the run before it starts.
func (b *Build) RunCtx(ctx context.Context, args []int64) (*machine.Result, error) {
	return b.runMachine(ctx, args, b.Config.Machine)
}

// EvaluateCtx re-times the compiled program on args under every machine
// configuration in cfgs — the paper's §5 sensitivity-style sweeps. The
// program executes functionally once per distinct (args, limits,
// layout) key and each Config costs only a trace walk; groups re-time
// in parallel across workers sharing their recorded traces read-only.
// Results are index-aligned with cfgs.
//
// Cancellation is threaded through the fan-out (internal/par) and the
// trace cache's singleflight: when ctx is done, idle workers stop
// claiming groups, waiters blocked on another caller's recording
// return, and EvaluateCtx itself returns ctx.Err() promptly without
// waiting for replays already in flight (which finish and are dropped).
//
// The grid is grouped by the non-timing part of each Config —
// normalized (StackSlots, MaxSteps, MaxCallDepth), which is exactly the
// trace cache key — and each group re-times whole through one
// machine.ReplayBatch call on the group's shared trace, so all the
// pipelined points of a group cost one instruction walk that advances
// one lane per distinct pipelined clock. A group is never split: every
// piece would walk the full instruction stream again, and pieces that
// share a clock could no longer collapse onto one lane. Per-config
// results are independent of batch composition (pinned by the
// differential tests), so worker count never changes the output.
// Because the grouping key equals the trace key, every config fits its
// own group's trace — a config whose limits fault does so during
// recording, inside traceFor, exactly as on the unbatched path.
func (b *Build) EvaluateCtx(ctx context.Context, args []int64, cfgs []machine.Config, workers int) ([]*machine.Result, error) {
	results := make([]*machine.Result, len(cfgs))
	type traceKey struct {
		slots int
		steps int64
		depth int
	}
	groups := make(map[traceKey][]int)
	var order []traceKey
	for i, cfg := range cfgs {
		n := cfg.Normalized()
		k := traceKey{n.StackSlots, n.MaxSteps, n.MaxCallDepth}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	if err := par.EachCtx(ctx, workers, len(order), func(g int) error {
		idxs := groups[order[g]]
		tr, err := b.traceFor(ctx, args, cfgs[idxs[0]])
		if err != nil {
			// the recording run faulted under these limits
			return err
		}
		sub := make([]machine.Config, len(idxs))
		for j, i := range idxs {
			sub[j] = cfgs[i]
		}
		res, err := machine.ReplayBatch(b.Code, tr, sub)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			results[i] = res[j]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// RunReferenceCtx interprets the unoptimized IR (the semantic oracle).
// A done ctx stops the interpretation before it starts or, within 2^16
// steps, while it runs.
func (c *Compilation) RunReferenceCtx(ctx context.Context, args []int64) (*interp.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := frontendCtx(ctx, c.Source)
	if err != nil {
		return nil, err
	}
	return interp.RunCtx(ctx, prog, interp.Options{Args: args})
}

// TotalStats sums optimizer statistics over all functions.
func (b *Build) TotalStats() ssapre.Stats {
	var total ssapre.Stats
	for _, s := range b.Stats {
		total.Add(*s)
	}
	return total
}

// CollectProfileCtx runs the alias/edge profiler on src with the given
// training input and returns the serialized profile, suitable for
// Config.ProfileJSON in a later CompileCtx. It is the same canonical,
// cached computation CompileCtx uses (frontend, refinement, one
// interpreter run), so collecting a profile warms the cache for a later
// compile with the same training args — and vice versa. The cache
// lookup and any nested frontend wait honor ctx.
func CollectProfileCtx(ctx context.Context, src string, args []int64) ([]byte, error) {
	prof, err := profileDataCtx(ctx, src, Config{ProfileArgs: args})
	if err != nil {
		return nil, err
	}
	return profile.Marshal(nil, prof)
}

// Reference interprets the unoptimized program and returns its result.
func Reference(src string, args []int64) (*interp.Result, error) {
	prog, err := frontendCtx(context.TODO(), src)
	if err != nil {
		return nil, err
	}
	return interp.Run(prog, interp.Options{Args: args})
}

// ReuseLimitCtx runs the Fig. 12 simulation-based load-reuse limit study
// on the unoptimized program: references with identical syntax trees form
// equivalence classes and repeats of the same (class, address, value) are
// counted as potential speculative reuses. The simulation runs inline
// during one interpretation. The frontend cache lookup honors ctx, and a
// done ctx stops the simulation before the interpreter run starts or,
// within 2^16 steps, while it runs.
func ReuseLimitCtx(ctx context.Context, src string, args []int64) (*interp.ReuseSim, error) {
	prog, err := frontendCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keys := ir.SiteSyntaxKeys(prog)
	classes := map[int]int{}
	classIDs := map[string]int{}
	for site, key := range keys {
		id, ok := classIDs[key]
		if !ok {
			id = len(classIDs)
			classIDs[key] = id
		}
		classes[site] = id
	}
	sim := interp.NewReuseSim(classes)
	if _, err := interp.RunCtx(ctx, prog, interp.Options{Args: args, Reuse: sim}); err != nil {
		return nil, err
	}
	return sim, nil
}

// PipelinedMachine returns the default machine model with the pipelined
// scoreboard timing enabled, for use in Config.Machine.
func PipelinedMachine() machine.Config {
	cfg := machine.Defaults()
	cfg.Pipelined = true
	return cfg
}
