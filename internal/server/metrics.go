package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
)

// metrics is the hand-rolled Prometheus-text-format registry behind GET
// /metrics: gauges for queue depth and in-flight jobs, a counter per
// (endpoint, code), per-phase latency histograms, the compilation
// cache's cumulative counters, and the summed speculation counters of
// every completed request — the paper's Fig. 10/11 quantities (loads
// retired, check loads, failed checks), observable live. Everything
// except the two gauges is monotone, which the drain test asserts.
type metrics struct {
	queueDepth atomic.Int64
	inflight   atomic.Int64

	mu         sync.Mutex
	requests   map[reqKey]uint64     // (endpoint, code) -> count
	phases     map[string]*histogram // phase -> latency histogram
	specPolicy map[string]uint64     // speculation mode -> compilations

	specLoadsRetired atomic.Int64
	specCheckLoads   atomic.Int64
	specFailedChecks atomic.Int64

	// specheck counters: compilations that ran with VerifyPasses and
	// came back clean, and the total violations the checker reported
	// (normally zero forever — a nonzero value is an alert condition,
	// since it means the pipeline produced unsound speculation).
	specheckVerified   atomic.Int64
	specheckViolations atomic.Int64

	// hardening counters: Layer 3 leaks found (and closed — hardened
	// compiles fail rather than ship a residual leak) and fences
	// inserted across every served request that asked for hardening.
	leaksFound     atomic.Int64
	fencesInserted atomic.Int64
}

// reqKey labels one requests_total series.
type reqKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{
		requests:   map[reqKey]uint64{},
		phases:     map[string]*histogram{},
		specPolicy: map[string]uint64{},
	}
}

// phaseBuckets are the histogram upper bounds in seconds, spanning a
// cache-warm replay (sub-millisecond) to a cold multi-workload sweep.
var phaseBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// histogram is a fixed-bucket latency histogram; counts are per bucket
// (the +Inf overflow is the last slot) and cumulated at render time.
type histogram struct {
	counts []uint64
	count  uint64
	sum    float64
}

func (h *histogram) observe(seconds float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(phaseBuckets)+1)
	}
	i := sort.SearchFloat64s(phaseBuckets, seconds)
	h.counts[i]++
	h.count++
	h.sum += seconds
}

func (m *metrics) countRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	m.mu.Unlock()
}

func (m *metrics) observePhase(phase string, seconds float64) {
	m.mu.Lock()
	h := m.phases[phase]
	if h == nil {
		h = &histogram{}
		m.phases[phase] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

// countSpecPolicy records which speculation flag source a compile or
// evaluate request ran under ("off", "profile", "heuristic", "cost") —
// the live view of how callers use the cost-model policy.
func (m *metrics) countSpecPolicy(mode repro.SpecMode) {
	m.mu.Lock()
	m.specPolicy[mode.String()]++
	m.mu.Unlock()
}

func (m *metrics) addSpec(loadsRetired, checkLoads, failedChecks int64) {
	m.specLoadsRetired.Add(loadsRetired)
	m.specCheckLoads.Add(checkLoads)
	m.specFailedChecks.Add(failedChecks)
}

// write renders the registry in Prometheus text exposition format, in a
// deterministic order (sorted label sets) so scrapes diff cleanly.
func (m *metrics) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP specd_queue_depth Jobs admitted and waiting for a worker slot.\n")
	fmt.Fprintf(w, "# TYPE specd_queue_depth gauge\n")
	fmt.Fprintf(w, "specd_queue_depth %d\n", m.queueDepth.Load())
	fmt.Fprintf(w, "# HELP specd_inflight_jobs Jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE specd_inflight_jobs gauge\n")
	fmt.Fprintf(w, "specd_inflight_jobs %d\n", m.inflight.Load())

	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	fmt.Fprintf(w, "# HELP specd_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE specd_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "specd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	policyKeys := make([]string, 0, len(m.specPolicy))
	for k := range m.specPolicy {
		policyKeys = append(policyKeys, k)
	}
	sort.Strings(policyKeys)
	fmt.Fprintf(w, "# HELP specd_spec_policy_total Compilations served, by data-speculation flag source.\n")
	fmt.Fprintf(w, "# TYPE specd_spec_policy_total counter\n")
	for _, k := range policyKeys {
		fmt.Fprintf(w, "specd_spec_policy_total{mode=%q} %d\n", k, m.specPolicy[k])
	}

	phaseKeys := make([]string, 0, len(m.phases))
	for k := range m.phases {
		phaseKeys = append(phaseKeys, k)
	}
	sort.Strings(phaseKeys)
	fmt.Fprintf(w, "# HELP specd_phase_seconds Job latency by phase.\n")
	fmt.Fprintf(w, "# TYPE specd_phase_seconds histogram\n")
	for _, k := range phaseKeys {
		h := m.phases[k]
		var cum uint64
		for i, ub := range phaseBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "specd_phase_seconds_bucket{phase=%q,le=\"%g\"} %d\n", k, ub, cum)
		}
		cum += h.counts[len(phaseBuckets)]
		fmt.Fprintf(w, "specd_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", k, cum)
		fmt.Fprintf(w, "specd_phase_seconds_sum{phase=%q} %g\n", k, h.sum)
		fmt.Fprintf(w, "specd_phase_seconds_count{phase=%q} %d\n", k, h.count)
	}
	m.mu.Unlock()

	// the compilation cache's cumulative counters (see internal/cache)
	cs := repro.CacheStats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"specd_cache_mem_hits_total", "In-memory cache tier hits.", cs.MemHits},
		{"specd_cache_mem_misses_total", "In-memory cache tier misses.", cs.MemMisses},
		{"specd_cache_computes_total", "Cache compute functions actually run.", cs.Computes},
		{"specd_cache_evictions_total", "In-memory cache entries evicted.", cs.Evictions},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}

	// profiling interpreter runs actually executed (cache misses): a
	// server leaves this flat for programs it has already profiled.
	fmt.Fprintf(w, "# HELP specd_profiling_runs_total Profiling interpreter runs actually executed (profile-cache misses).\n")
	fmt.Fprintf(w, "# TYPE specd_profiling_runs_total counter\n")
	fmt.Fprintf(w, "specd_profiling_runs_total %d\n", repro.ProfilingRuns())

	// full compilation pipeline runs (build-cache misses that reused no
	// earlier build, plus any direct CompileCtx call): a repeated
	// /evaluate, /sweep or /compile leaves this flat
	fmt.Fprintf(w, "# HELP specd_builds_compiled_total Full compilation pipeline runs (build-cache misses that reused no earlier build, and direct compiles).\n")
	fmt.Fprintf(w, "# TYPE specd_builds_compiled_total counter\n")
	fmt.Fprintf(w, "specd_builds_compiled_total %d\n", repro.BuildsCompiled())

	// build-cache misses answered by an earlier build whose flag
	// decisions and control-speculation tests the new training input
	// reproduced: the pipeline ran only up to flag assignment
	fmt.Fprintf(w, "# HELP specd_builds_reused_total Build-cache misses that reused an earlier build compiled under the same profile decisions.\n")
	fmt.Fprintf(w, "# TYPE specd_builds_reused_total counter\n")
	fmt.Fprintf(w, "specd_builds_reused_total %d\n", repro.BuildsReused())

	// recordings a cold /evaluate started on its guessed build while
	// compiling: used ones became the request's trace, discarded ones
	// were cancelled unused
	used, discarded := repro.SpeculativeRecords()
	fmt.Fprintf(w, "# HELP specd_speculative_records_total Trace recordings started on a guessed build during a cold evaluation, by outcome.\n")
	fmt.Fprintf(w, "# TYPE specd_speculative_records_total counter\n")
	fmt.Fprintf(w, "specd_speculative_records_total{outcome=\"used\"} %d\n", used)
	fmt.Fprintf(w, "specd_speculative_records_total{outcome=\"discarded\"} %d\n", discarded)

	// resident size of the traces the record-and-replay path
	// keeps in the cache (a gauge: eviction and Reset shrink it)
	fmt.Fprintf(w, "# HELP specd_trace_bytes Machine traces resident in the compilation cache, in bytes.\n")
	fmt.Fprintf(w, "# TYPE specd_trace_bytes gauge\n")
	fmt.Fprintf(w, "specd_trace_bytes %d\n", repro.TraceCacheBytes())

	// speculation counters summed over every completed request — the
	// live view of the paper's Fig. 10/11 quantities
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"specd_spec_loads_retired_total", "Loads retired across all served evaluations.", m.specLoadsRetired.Load()},
		{"specd_spec_check_loads_total", "Check loads (ld.c/ldf.c) across all served evaluations.", m.specCheckLoads.Load()},
		{"specd_spec_failed_checks_total", "Failed speculation checks across all served evaluations.", m.specFailedChecks.Load()},
		{"specd_specheck_verified_total", "Compilations that ran the speculation-soundness checker and passed.", m.specheckVerified.Load()},
		{"specd_specheck_violations_total", "Speculation-soundness violations reported by verify-enabled compilations (nonzero means the pipeline produced unsound speculation).", m.specheckViolations.Load()},
		{"specd_leaks_found_total", "Speculative leaks found (and closed) by the Layer 3 taint analysis across hardened requests.", m.leaksFound.Load()},
		{"specd_fences_inserted_total", "Fences inserted by the hardening pass across hardened requests.", m.fencesInserted.Load()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
}
