package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/server"
)

// params are one run's settings. The command fixes all but the
// workload's seed, window and tracing; tests shorten the rest.
type params struct {
	seed   uint64
	window time.Duration
	// warmup is the untimed load before the window; for eval-cold it
	// fills the memory tier, so eviction is in steady state.
	warmup time.Duration
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	trace  bool
	// traceN is how many requests of the stream the traced run replays.
	traceN int
	// spans is where the traced run writes its spans ("" = nowhere).
	spans string
	// coldChecks is how many eval-cold replies are checked against the
	// reference interpreter after the window.
	coldChecks int
}

// defaultParams are the command's settings for a window of `seconds`.
func defaultParams(seed uint64, seconds int, trace bool, spans string) params {
	return params{
		seed: seed, window: time.Duration(seconds) * time.Second,
		warmup: 3 * time.Second, setups: 5,
		trace: trace, traceN: 400, spans: spans, coldChecks: 256,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a set of metrics in emission order.
type metricSet struct {
	names  []string
	values map[string]metric
}

// add records a metric. A ratio over nothing (no checks, no requests of a
// kind) reads 0, since JSON has no NaN.
func (ms *metricSet) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if ms.values == nil {
		ms.values = map[string]metric{}
	}
	ms.values[name] = metric{v, unit}
	ms.names = append(ms.names, name)
}

// report is a run's result. The command prints it as its last line, with
// Metrics set to the end-to-end or, for the traced run, the per-layer set.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	endToEnd, perLayer metricSet
}

// served is a specd handler behind a loopback HTTP server.
type served struct {
	ts *httptest.Server
	c  *client
}

func (e *served) close() {
	e.c.close()
	e.ts.Close()
}

// setUp boots a fresh specd with an empty compilation cache and sends
// the workload's warm set, timing both. The first set-up's replies
// become the fixtures' expected replies; later set-ups must reproduce
// them byte for byte.
func setUp(ctx context.Context, wl workload, fx *fixtures) (*served, time.Duration, error) {
	repro.ResetCaches()
	runtime.GC()
	start := time.Now()
	// specd's defaults; only the request log is discarded
	s := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(s.Handler())
	e := &served{ts, newClient(ts.URL)}
	for _, r := range fx.warmSet(wl) {
		body, err := e.c.do(ctx, http.MethodPost, r.path, r.body)
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if len(*r.want) == 0 {
			*r.want = body
		} else if !bytes.Equal(body, *r.want) {
			e.close()
			return nil, 0, fmt.Errorf("set-up: POST %s %s: reply differs between set-ups", r.path, r.body)
		}
	}
	// The baseline builds are not compared between set-ups: gzip's
	// SpecOff build reports 147 or 148 placed Φs from one compile to the
	// next (with identical code), so its reply is not byte-stable. Only
	// its counters are used, and no workload's traffic sends it.
	for _, r := range fx.specOff {
		body, err := e.c.do(ctx, http.MethodPost, r.path, r.body)
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		*r.want = body
	}
	return e, time.Since(start), nil
}

// load runs the workload's traffic for d.
func (e *served) load(ctx context.Context, wl workload, st *stream, sched *rand.Rand, d time.Duration) *outcome {
	if !wl.open {
		return closedLoop(ctx, e.c, st, d)
	}
	due := arrivals(sched, openRate, d)
	reqs := make([]*request, len(due))
	for i := range reqs {
		reqs[i] = st.next()
	}
	return openLoop(ctx, e.c, reqs, due)
}

// scrape reads specd's /metrics into series → value.
func (e *served) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := e.c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta sums after−before over every series whose name has prefix and
// whose labels contain every one of labels.
func delta(before, after map[string]float64, prefix string, labels ...string) float64 {
	var d float64
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(k, l)
		}
		if match {
			d += v - before[k]
		}
	}
	return d
}

// usage returns the process's CPU time so far and its peak RSS in MB.
func usage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// quality holds the deterministic end-to-end metrics, from the verified
// fixture replies.
type quality struct {
	simCycles, loadReduction float64
}

// verifyFixtures checks every set-up reply and derives the quality
// metrics: each pool output equals the reference interpreter's, the
// stage driver reproduces every reply byte for byte, each sweep's
// default-machine point matches the kernel's profile-mode evaluation,
// and every hardened compile reports zero residual leaks. It returns the
// driver, whose memo then holds what specd's cache holds after set-up.
func verifyFixtures(ctx context.Context, wl workload, fx *fixtures) (quality, *driver, error) {
	var q quality
	evals := map[*request]*experiments.EvalResult{}
	refs := map[string]string{}
	for _, r := range append(append([]*request(nil), fx.pool...), fx.specOff...) {
		var res experiments.EvalResult
		if err := json.Unmarshal(*r.want, &res); err != nil {
			return q, nil, fmt.Errorf("verify %s: %w", r.body, err)
		}
		if err := checkOutput(r, &res, refs); err != nil {
			return q, nil, err
		}
		evals[r] = &res
	}

	d := newDriver()
	for _, r := range fx.warmSet(wl) {
		got, err := d.serve(ctx, scope{}, r.path, r.body)
		if err != nil {
			return q, nil, fmt.Errorf("stage driver: POST %s %s: %w", r.path, r.body, err)
		}
		if !bytes.Equal(got, *r.want) {
			return q, nil, fmt.Errorf("stage driver: POST %s %s: reply differs from specd's", r.path, r.body)
		}
	}
	// the baseline builds warm specd's cache too; only their machine
	// results are stable enough to compare (see setUp)
	for _, r := range fx.specOff {
		got, err := d.serve(ctx, scope{}, r.path, r.body)
		var res experiments.EvalResult
		if err == nil {
			err = json.Unmarshal(got, &res)
		}
		if err != nil {
			return q, nil, fmt.Errorf("stage driver: POST %s %s: %w", r.path, r.body, err)
		}
		if !reflect.DeepEqual(res.Result, evals[r].Result) {
			return q, nil, fmt.Errorf("stage driver: POST %s %s: machine result differs from specd's", r.path, r.body)
		}
	}

	defaults := machine.Defaults().Normalized()
	for i, r := range fx.sweeps {
		if len(*r.want) == 0 {
			continue // not in this workload's warm set
		}
		var resp server.SweepResponse
		if err := json.Unmarshal(*r.want, &resp); err != nil {
			return q, nil, fmt.Errorf("verify sweep %s: %w", r.kernel.Name, err)
		}
		want := evals[fx.profileRef[i]].Result.Counters.Cycles
		found := false
		for _, p := range resp.Points {
			if p.Config.Normalized() == defaults {
				found = true
				if p.Cycles != want {
					return q, nil, fmt.Errorf("sweep %s: default machine point has %d cycles, the evaluation %d", r.kernel.Name, p.Cycles, want)
				}
			}
		}
		if !found {
			return q, nil, fmt.Errorf("sweep %s: no default machine point", r.kernel.Name)
		}
	}
	for _, r := range fx.compiles {
		if len(*r.want) == 0 {
			continue
		}
		var resp server.CompileResponse
		if err := json.Unmarshal(*r.want, &resp); err != nil {
			return q, nil, fmt.Errorf("verify compile %s: %w", r.kernel.Name, err)
		}
		if resp.Harden == nil || resp.Harden.Residual != 0 {
			return q, nil, fmt.Errorf("compile %s: hardened build reports residual leaks", r.kernel.Name)
		}
	}

	var cycles, ratios []float64
	for _, r := range fx.pool {
		cycles = append(cycles, float64(evals[r].Result.Counters.Cycles))
	}
	for i, r := range fx.specOff {
		base, spec := evals[r].Result.Counters, evals[fx.profileRef[i]].Result.Counters
		ratios = append(ratios, float64(spec.LoadsRetired-spec.CheckLoads)/float64(base.LoadsRetired-base.CheckLoads))
	}
	q.simCycles = geomean(cycles)
	q.loadReduction = 100 * (1 - geomean(ratios))
	return q, d, nil
}

// checkOutput compares an evaluation's output and return value with the
// reference interpreter's on the unoptimized program; refs memoizes
// reference outputs by kernel and arguments.
func checkOutput(r *request, res *experiments.EvalResult, refs map[string]string) error {
	if !slices.Equal(res.Args, r.args) {
		return fmt.Errorf("evaluate %s: reply echoes args %v, sent %v", r.kernel.Name, res.Args, r.args)
	}
	key := fmt.Sprint(r.kernel.Name, r.args)
	want, ok := refs[key]
	if !ok {
		ref, err := repro.Reference(r.kernel.Src, r.args)
		if err != nil {
			return fmt.Errorf("reference %s %v: %w", r.kernel.Name, r.args, err)
		}
		want = fmt.Sprintf("%d %q", ref.Ret, ref.Output)
		refs[key] = want
	}
	if got := fmt.Sprintf("%d %q", res.Result.Ret, res.Result.Output); got != want {
		return fmt.Errorf("evaluate %s %v: output %s, reference %s", r.kernel.Name, r.args, got, want)
	}
	return nil
}

// checkColds verifies a seeded sample of n eval-cold replies against the
// reference interpreter.
func checkColds(seed uint64, colds []coldReply, n int) []error {
	// replies arrive in scheduling order; sort by the request's sequence
	// number (its trailing argument) so the sample depends on the seed only
	sort.Slice(colds, func(i, j int) bool {
		return colds[i].r.args[len(colds[i].r.args)-1] < colds[j].r.args[len(colds[j].r.args)-1]
	})
	rng := rand.New(rand.NewPCG(seed, 3))
	var errs []error
	refs := map[string]string{}
	for _, i := range rng.Perm(len(colds))[:min(n, len(colds))] {
		var res experiments.EvalResult
		err := json.Unmarshal(colds[i].body, &res)
		if err == nil {
			err = checkOutput(colds[i].r, &res, refs)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// runWorkload runs one workload end to end — set-up, warm-up, measured
// window, checks, and with p.trace the traced run — and reports its
// metrics.
func runWorkload(ctx context.Context, wl workload, p params) (*report, error) {
	fx := newFixtures()
	var env *served
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		if env != nil {
			env.close()
		}
		e, d, err := setUp(ctx, wl, fx)
		if err != nil {
			return nil, err
		}
		env = e
		setupS = append(setupS, d.Seconds())
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	q, drv, err := verifyFixtures(ctx, wl, fx)
	if err != nil {
		return nil, err
	}

	st := newStream(p.seed, wl, fx)
	sched := rand.New(rand.NewPCG(p.seed, 2))
	warm := env.load(ctx, wl, st, sched, p.warmup)
	before, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, _ := usage()
	start := time.Now()
	out := env.load(ctx, wl, st, sched, p.window)
	cpu, rss := usage()
	cpu -= cpu0
	after, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	errs := append(warm.errs, out.errs...)
	coldErrs := checkColds(p.seed, append(warm.colds, out.colds...), p.coldChecks)
	errs = append(errs, coldErrs...)

	rep := &report{Attempted: len(out.samples), Failed: len(out.errs) + len(coldErrs)}
	rep.Correct = len(errs) == 0
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "specbench: %s: %d failures:\n%v\n", wl.name, len(errs), errSummary(errs))
	}

	var lat, service, lag []float64
	inSLO := 0
	for _, s := range out.samples {
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.latency))
		service = append(service, ms(s.service))
		lag = append(lag, ms(s.lag))
		if s.latency <= sloLimit {
			inSLO++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	okN := float64(len(lat))
	// the window lasts until its last reply
	var last time.Duration
	for _, s := range out.samples {
		last = max(last, s.end.Sub(start))
	}
	e2e := &rep.endToEnd
	e2e.add("setup_s", median(setupS), "s")
	e2e.add("throughput_rps", okN/max(last, p.window).Seconds(), "req/s")
	e2e.add("latency_p50_ms", percentile(lat, 50), "ms")
	e2e.add("latency_p90_ms", percentile(lat, 90), "ms")
	e2e.add("cpu_ms_per_req", ms(cpu)/okN, "ms")
	e2e.add("peak_rss_mb", rss, "MB")
	e2e.add("slo_attainment", float64(inSLO)/float64(len(out.samples)), "ratio")
	e2e.add("sim_cycles_geomean", q.simCycles, "cycles")
	e2e.add("load_reduction_pct", q.loadReduction, "%")
	if !p.trace {
		return rep, nil
	}

	pl := &rep.perLayer
	tail := tailPercentile(len(lat))
	pl.add("client.samples", okN, "count")
	pl.add("client.latency_p99_ms", percentile(lat, 99), "ms")
	pl.add("client.tail_percentile", tail, "%")
	pl.add("client.tail_ms", percentile(lat, tail), "ms")
	pl.add("client.gen_lag_p99_ms", percentile(lag, 99), "ms")
	jobs := delta(before, after, "specd_phase_seconds_count")
	jobMs := 1000 * delta(before, after, "specd_phase_seconds_sum") / jobs
	pl.add("server.job_ms", jobMs, "ms")
	pl.add("server.transport_ms", mean(service)-jobMs, "ms")
	pl.add("server.rejected", delta(before, after, "specd_requests_total", `code="429"`)+
		delta(before, after, "specd_requests_total", `code="503"`), "count")
	hits := delta(before, after, "specd_cache_mem_hits_total")
	pl.add("cache.mem_hit_ratio", hits/(hits+delta(before, after, "specd_cache_mem_misses_total")), "ratio")
	pl.add("cache.computes_per_req", delta(before, after, "specd_cache_computes_total")/okN, "count")
	pl.add("cache.evictions_per_req", delta(before, after, "specd_cache_evictions_total")/okN, "count")
	pl.add("cache.trace_resident_mb", after["specd_trace_bytes"]/(1<<20), "MB")
	pl.add("interp.profile_runs_per_req", delta(before, after, "specd_profiling_runs_total")/okN, "count")

	// the traced run needs neither the server nor its cache
	env.close()
	env = nil
	repro.ResetCaches()
	runtime.GC()
	debug.FreeOSMemory()
	if err := tracedRun(ctx, wl, p, fx, drv, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
