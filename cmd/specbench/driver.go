package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/alias"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// The stage driver answers specd requests by calling each layer's public
// functions directly, in the order repro.CompileCtx, Compilation.RunCtx,
// Compilation.EvaluateCtx and the server handlers call them, with a span
// around every layer call. It exists because the program records no
// spans of its own yet: the traced run replays a workload's request
// stream through it to split served time by layer. It must produce
// byte-identical responses to the server's — set-up compares every
// fixture response, and driver_test.go compares builds and machine
// results against repro across the variant matrix — so the traced
// pipeline cannot drift from the real one.
//
// Memoization mirrors repro's compilation cache: one FIFO of memoCap
// entries holding frontend masters, serialized profiles, decoded traces
// and serialized traces, keyed exactly as repro keys them. Warm requests
// therefore hit and cold requests miss here as they do in specd.
type driver struct {
	mu   sync.Mutex
	memo *fifo

	// counts of the work done, read by the traced run
	eliminated, specEliminated, checksInserted atomic.Int64
	instrs, fences, hoisted                    atomic.Int64
	configs, checkLoads, failedChecks          atomic.Int64
	traceBytes                                 atomic.Int64
}

// memoCap and the cache versions below are repro's (compCacheCap,
// profileCacheVersion, traceCacheVersion); the versions only salt keys.
const (
	memoCap             = 512
	profileCacheVersion = 2
	traceCacheVersion   = 4
)

func newDriver() *driver { return &driver{memo: newFIFO(memoCap)} }

// fork returns a driver whose memo starts as a copy of d's, so two
// traced passes over the same requests see the same hits and misses.
func (d *driver) fork() *driver {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &driver{memo: d.memo.clone()}
}

func (d *driver) get(k cache.Key) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memo.get(k)
}

func (d *driver) put(k cache.Key, v any) {
	d.mu.Lock()
	d.memo.put(k, v)
	d.mu.Unlock()
}

// serve answers one specd request (path and JSON body) with the bytes
// the server would send, under a root span when s records.
func (d *driver) serve(ctx context.Context, s scope, path string, body []byte) ([]byte, error) {
	root := s.begin("request")
	defer root.end()
	switch path {
	case "/evaluate":
		var req experiments.EvalRequest
		if err := decode(root, body, &req); err != nil {
			return nil, err
		}
		return d.evaluate(ctx, root, req)
	case "/sweep":
		var req server.SweepRequest
		if err := decode(root, body, &req); err != nil {
			return nil, err
		}
		return d.sweep(ctx, root, req)
	case "/compile":
		var req server.CompileRequest
		if err := decode(root, body, &req); err != nil {
			return nil, err
		}
		return d.compileRequest(ctx, root, req)
	}
	return nil, fmt.Errorf("driver: no endpoint %s", path)
}

// decode mirrors the server's strict request decoding.
func decode(s scope, body []byte, v any) error {
	sp := s.begin("server.decode")
	defer sp.end()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode mirrors the server's rendering of a non-pre-rendered response.
func encode(s scope, v any) ([]byte, error) {
	sp := s.begin("experiments.encode")
	defer sp.end()
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

// evaluate mirrors experiments.RunEvalCtx + MarshalEval.
func (d *driver) evaluate(ctx context.Context, s scope, req experiments.EvalRequest) ([]byte, error) {
	w, ok := workloads.Resolve(req.Workload)
	if !ok {
		return nil, fmt.Errorf("driver: unknown workload %q", req.Workload)
	}
	if len(req.FnTiers) > 0 {
		return nil, errors.New("driver: fnTiers are not mirrored")
	}
	cfg := repro.Config{Spec: repro.SpecProfile}
	if req.Config != nil {
		cfg = *req.Config
	}
	if cfg.ProfileArgs == nil {
		cfg.ProfileArgs = w.ProfileArgs
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
	b, err := d.compile(ctx, s, w.Src, cfg)
	if err != nil {
		return nil, err
	}
	res, err := d.run(ctx, s, b, args, cfg.Machine)
	if err != nil {
		return nil, err
	}
	d.countResult(res)
	cfg.Workers = 0
	cfg.VerifyPasses = false
	sp := s.begin("experiments.encode")
	defer sp.end()
	return experiments.MarshalEval(&experiments.EvalResult{
		Workload: w.Name, Config: cfg, Args: args, Result: res,
		Stats: b.totalStats(), Harden: b.harden,
	})
}

// sweep mirrors experiments.RunMachineSweepCtx and the server's
// SweepResponse.
func (d *driver) sweep(ctx context.Context, s scope, req server.SweepRequest) ([]byte, error) {
	w, ok := workloads.Resolve(req.Workload)
	if !ok {
		return nil, fmt.Errorf("driver: unknown workload %q", req.Workload)
	}
	b, err := d.compile(ctx, s, w.Src, repro.Config{
		Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: req.Workers,
	})
	if err != nil {
		return nil, err
	}
	cfgs := req.Configs
	if cfgs == nil {
		cfgs = experiments.MachineSweepConfigs()
	}
	results, err := d.runGrid(ctx, s, b, w.RefArgs, cfgs, req.Workers)
	if err != nil {
		return nil, err
	}
	points := make([]experiments.MachinePoint, len(cfgs))
	for i, r := range results {
		d.countResult(r)
		points[i] = experiments.MachinePoint{
			Config:       cfgs[i],
			Cycles:       r.Counters.Cycles,
			FailedChecks: r.Counters.FailedChecks,
			Evictions:    r.Counters.ALATEvictions,
		}
	}
	return encode(s, &server.SweepResponse{Workload: req.Workload, Points: points})
}

// compileRequest mirrors the server's POST /compile handler.
func (d *driver) compileRequest(ctx context.Context, s scope, req server.CompileRequest) ([]byte, error) {
	cfg := repro.Config{Spec: repro.SpecProfile}
	if req.Config != nil {
		cfg = *req.Config
	}
	cfg.Workers = req.Workers
	if req.Verify {
		cfg.VerifyPasses = true
	}
	if req.Harden != "" {
		cfg.Harden = req.Harden
	}
	b, err := d.compile(ctx, s, req.Source, cfg)
	if err != nil {
		return nil, err
	}
	return encode(s, &server.CompileResponse{
		Functions: len(b.prog.Funcs), Stats: b.totalStats(), Harden: b.harden,
	})
}

func (d *driver) countResult(r *machine.Result) {
	d.configs.Add(1)
	d.checkLoads.Add(r.Counters.CheckLoads)
	d.failedChecks.Add(r.Counters.FailedChecks)
}

// build is the driver's counterpart of repro.Compilation.
type build struct {
	prog   *ir.Program
	code   *machine.Program
	stats  map[string]*ssapre.Stats
	harden *harden.Report

	fpOnce sync.Once
	fp     [32]byte
}

func (b *build) totalStats() ssapre.Stats {
	var total ssapre.Stats
	for _, st := range b.stats {
		total.Add(*st)
	}
	return total
}

// fingerprint mirrors Compilation's once-per-build code hash.
func (b *build) fingerprint(s scope) [32]byte {
	b.fpOnce.Do(func() {
		sp := s.begin("machine.fingerprint")
		b.fp = b.code.Fingerprint()
		sp.end()
	})
	return b.fp
}

// frontend mirrors repro's memoized parse + lower; callers clone the
// returned master.
func (d *driver) frontend(s scope, src string) (*ir.Program, error) {
	key := cache.KeyOf([]byte("frontend"), []byte(src))
	if v, ok := d.get(key); ok {
		return v.(*ir.Program), nil
	}
	sp := s.begin("source.frontend")
	f, err := source.Parse(src)
	var prog *ir.Program
	if err == nil {
		prog, err = source.Lower(f)
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	d.put(key, prog)
	return prog, nil
}

// clone is ir.Clone under a span.
func clone(s scope, p *ir.Program) *ir.Program {
	sp := s.begin("ir.clone")
	defer sp.end()
	return ir.Clone(p)
}

// profileData mirrors repro's memoized training run.
func (d *driver) profileData(s scope, src string, cfg repro.Config) ([]byte, error) {
	opts := fmt.Sprintf("v%d tbaa=%t", profileCacheVersion, !cfg.NoTypeBasedAA)
	key := cache.KeyOf([]byte("profile"), []byte(src), []byte(opts), argBytes(cfg.ProfileArgs))
	if v, ok := d.get(key); ok {
		return v.([]byte), nil
	}
	master, err := d.frontend(s, src)
	if err != nil {
		return nil, err
	}
	prog := clone(s, master)
	sp := s.begin("alias.refine")
	alias.RefineWorkers(prog, cfg.Workers)
	sp.end()
	prof := profile.New()
	sp = s.begin("interp.profile")
	_, err = interp.Run(prog, interp.Options{
		CollectEdges: true, CollectAlias: true, Profile: prof, Args: cfg.ProfileArgs,
	})
	sp.end()
	if err != nil {
		// repro falls back to a static estimate; no benchmark input faults
		return nil, fmt.Errorf("driver: profiling run: %w", err)
	}
	sp = s.begin("profile.marshal")
	data, err := profile.Marshal(prog, prof)
	sp.end()
	if err != nil {
		return nil, err
	}
	d.put(key, data)
	return data, nil
}

// verify runs one specheck pass under a span and surfaces its
// violations as an error, as CompileCtx does.
func verify(s scope, check func() []specheck.Violation) error {
	sp := s.begin("specheck.verify")
	defer sp.end()
	if err := specheck.AsError(check()); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// compile mirrors repro.CompileCtx step for step. Profiles supplied as
// ProfileJSON and per-function tier overrides are not mirrored; the
// benchmark sends neither.
func (d *driver) compile(ctx context.Context, s scope, src string, cfg repro.Config) (*build, error) {
	if len(cfg.ProfileJSON) > 0 || len(cfg.FnSpec) > 0 {
		return nil, errors.New("driver: ProfileJSON and FnSpec are not mirrored")
	}
	master, err := d.frontend(s, src)
	if err != nil {
		return nil, err
	}
	ref := clone(s, master)
	prog := clone(s, ref)
	b := &build{prog: prog}

	if !cfg.OptimizeOff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := s.begin("alias.refine")
		alias.RefineWorkers(prog, cfg.Workers)
		sp.end()
		sp = s.begin("alias.analyze")
		ar := alias.Analyze(prog, alias.Options{TypeBased: !cfg.NoTypeBasedAA})
		sp.end()
		sp = s.begin("alias.annotate")
		ar.AnnotateWorkers(prog, cfg.Workers)
		sp.end()
		env := &specheck.Env{Alias: ar}
		if cfg.VerifyPasses {
			if err := verify(s, func() []specheck.Violation { return specheck.CheckAnnotated(prog, env, "alias-annotate") }); err != nil {
				return nil, err
			}
		}

		data, err := d.profileData(s, src, cfg)
		if err != nil {
			return nil, err
		}
		sp = s.begin("profile.unmarshal")
		prof, err := profile.Unmarshal(prog, data)
		if err == nil {
			prof.ApplyEdges(prog)
		}
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("repro: cached profile: %w", err)
		}

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mode := coreMode(cfg.Spec)
		flagProf := prof
		if cfg.AggressivePromotion {
			mode = core.ModeProfile
			flagProf = profile.New()
		}
		pol := core.PolicyFor(cfg.Machine, cfg.SpecThreshold)
		sp = s.begin("core.flags")
		core.AssignFlagsTiered(prog, ar, flagProf, mode, pol, nil)
		sp.end()
		env.Prof, env.Mode, env.Policy = flagProf, mode, pol
		if cfg.VerifyPasses {
			if err := verify(s, func() []specheck.Violation { return specheck.CheckAnnotated(prog, env, "assign-flags") }); err != nil {
				return nil, err
			}
			if err := verify(s, func() []specheck.Violation { return specheck.CheckFlags(prog, env, "assign-flags") }); err != nil {
				return nil, err
			}
		}

		pre := s.begin("ssapre.run")
		var hook func(fn *ir.Func, pass string, inSSA bool) error
		if cfg.VerifyPasses {
			hook = func(fn *ir.Func, pass string, inSSA bool) error {
				return verify(pre, func() []specheck.Violation {
					if inSSA {
						return specheck.CheckSSAFunc(fn, pass)
					}
					return specheck.CheckPostSSA(fn, pass)
				})
			}
		}
		stats, err := ssapre.Run(prog, ssapre.Options{
			DataSpec:    mode,
			ControlSpec: !cfg.NoControlSpec,
			Rounds:      cfg.Rounds,
			Alias:       ar,
			NoArith:     cfg.NoArith,
			NoStrength:  cfg.NoStrength,
			Workers:     cfg.Workers,
			VerifyHook:  hook,
		})
		pre.end()
		if err != nil {
			return nil, err
		}
		b.stats = stats
		sp = s.begin("ir.verify")
		err = par.EachCtx(ctx, cfg.Workers, len(prog.Funcs), func(i int) error {
			if err := ir.Verify(prog.Funcs[i]); err != nil {
				return fmt.Errorf("repro: optimizer produced invalid IR: %w", err)
			}
			return nil
		})
		sp.end()
		if err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Schedule {
		var before specheck.MemOrder
		if cfg.VerifyPasses {
			sp := s.begin("specheck.verify")
			before = specheck.SnapshotMemOrder(prog)
			sp.end()
		}
		sp := s.begin("codegen.schedule")
		codegen.ScheduleWorkers(prog, cfg.Workers)
		sp.end()
		if cfg.VerifyPasses {
			if err := verify(s, func() []specheck.Violation { return specheck.CheckSchedule(prog, before, "schedule") }); err != nil {
				return nil, err
			}
		}
	}
	sp := s.begin("codegen.lower")
	code, err := codegen.LowerWorkers(prog, cfg.Workers)
	sp.end()
	if err != nil {
		return nil, err
	}
	if cfg.VerifyPasses {
		if err := verify(s, func() []specheck.Violation { return specheck.CheckMachine(code, "codegen") }); err != nil {
			return nil, err
		}
	}
	if cfg.Harden != "" {
		pol, err := harden.ParsePolicy(cfg.Harden)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		sp := s.begin("harden.apply")
		rep, err := harden.Apply(code, pol)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		b.harden = rep
		d.fences.Add(int64(rep.FencesInserted))
		d.hoisted.Add(int64(rep.ChecksHoisted))
		sp = s.begin("specheck.leaks")
		err = specheck.AsError(specheck.CheckLeaks(code, "harden"))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		if cfg.VerifyPasses {
			if err := verify(s, func() []specheck.Violation { return specheck.CheckMachine(code, "harden") }); err != nil {
				return nil, err
			}
		}
	}
	b.code = code

	st := b.totalStats()
	d.eliminated.Add(int64(st.Eliminated))
	d.specEliminated.Add(int64(st.SpecEliminated))
	d.checksInserted.Add(int64(st.ChecksInserted))
	for _, f := range code.Funcs {
		d.instrs.Add(int64(len(f.Instrs)))
	}
	return b, nil
}

// coreMode mirrors SpecMode.coreMode.
func coreMode(m repro.SpecMode) core.Mode {
	switch m {
	case repro.SpecProfile:
		return core.ModeProfile
	case repro.SpecHeuristic:
		return core.ModeHeuristic
	case repro.SpecCost:
		return core.ModeCost
	}
	return core.ModeNone
}

func argBytes(args []int64) []byte {
	b := make([]byte, 8*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(a))
	}
	return b
}

// trace mirrors Compilation.traceFor: the decoded trace is memoized
// under one key and its serialized form under another.
func (d *driver) trace(s scope, b *build, args []int64, mcfg machine.Config) (*machine.Trace, error) {
	n := mcfg.Normalized()
	fp := b.fingerprint(s)
	argb := argBytes(args)
	lim := fmt.Sprintf("v%d slots=%d steps=%d depth=%d",
		traceCacheVersion, n.StackSlots, n.MaxSteps, n.MaxCallDepth)
	key := cache.KeyOf([]byte("trace"), fp[:], argb, []byte(lim))
	if v, ok := d.get(key); ok {
		return v.(*machine.Trace), nil
	}
	bkey := cache.KeyOf([]byte("tracebytes"), fp[:], argb, []byte(lim))
	v, ok := d.get(bkey)
	if !ok {
		sp := s.begin("machine.record")
		tr, err := machine.Record(b.code, args, n)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = s.begin("machine.trace_codec")
		v = tr.Marshal()
		sp.end()
		d.put(bkey, v)
	}
	sp := s.begin("machine.trace_codec")
	tr, err := machine.UnmarshalTrace(v.([]byte))
	sp.end()
	if err != nil {
		return nil, err
	}
	d.put(key, tr)
	return tr, nil
}

// run mirrors Compilation.RunCtx: one trace replay.
func (d *driver) run(ctx context.Context, s scope, b *build, args []int64, mcfg machine.Config) (*machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := d.trace(s, b, args, mcfg)
	if err != nil {
		return nil, err
	}
	d.traceBytes.Add(tr.Bytes())
	sp := s.begin("machine.replay")
	defer sp.end()
	return machine.Replay(b.code, tr, mcfg, nil)
}

// runGrid mirrors Compilation.EvaluateCtx: configs are grouped by trace
// key and each group is split into up to `workers` ReplayBatch calls run
// in parallel. Each group's trace is fetched before the fan-out, which
// is where repro's single-flight leaves the batches waiting anyway.
func (d *driver) runGrid(ctx context.Context, s scope, b *build, args []int64, cfgs []machine.Config, workers int) ([]*machine.Result, error) {
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
	w := par.Workers(workers)
	var units [][]int
	var traces []*machine.Trace
	for _, k := range order {
		idxs := groups[k]
		tr, err := d.trace(s, b, args, cfgs[idxs[0]])
		if err != nil {
			return nil, err
		}
		d.traceBytes.Add(tr.Bytes())
		nu := min(w, len(idxs))
		for u := 0; u < nu; u++ {
			units = append(units, idxs[u*len(idxs)/nu:(u+1)*len(idxs)/nu])
			traces = append(traces, tr)
		}
	}
	results := make([]*machine.Result, len(cfgs))
	err := par.EachCtx(ctx, workers, len(units), func(u int) error {
		idxs := units[u]
		sub := make([]machine.Config, len(idxs))
		for j, i := range idxs {
			sub[j] = cfgs[i]
		}
		sp := s.begin("machine.replay")
		res, err := machine.ReplayBatch(b.code, traces[u], sub)
		sp.end()
		if err != nil {
			return err
		}
		for j, i := range idxs {
			results[i] = res[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// fifo is a bounded map evicting in insertion order, as internal/cache's
// memory tier does.
type fifo struct {
	cap   int
	m     map[cache.Key]any
	order []cache.Key
}

func newFIFO(capacity int) *fifo { return &fifo{cap: capacity, m: map[cache.Key]any{}} }

func (f *fifo) get(k cache.Key) (any, bool) {
	v, ok := f.m[k]
	return v, ok
}

func (f *fifo) put(k cache.Key, v any) {
	if _, ok := f.m[k]; ok {
		return
	}
	for len(f.m) >= f.cap {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
	f.m[k] = v
	f.order = append(f.order, k)
}

func (f *fifo) clone() *fifo {
	g := &fifo{cap: f.cap, m: make(map[cache.Key]any, len(f.m)), order: append([]cache.Key(nil), f.order...)}
	for k, v := range f.m {
		g.m[k] = v
	}
	return g
}
