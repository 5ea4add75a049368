// Package server is specd's HTTP front end over the speculative
// compilation pipeline: a long-running service that accepts MiniC
// compile/evaluate/sweep jobs and returns the same JSON the experiment
// engine produces on the command line.
//
// The request path is queue → context → pipeline:
//
//   - admission control: at most Workers jobs execute at once and at
//     most Queue more wait; a job beyond that is rejected with 429
//     immediately (the client should back off), and every waiting job
//     is rejected with 503 the moment the server starts draining;
//   - context: each admitted job runs under the request's context
//     bounded by the per-request Timeout, and cancellation is threaded
//     through repro's compile/evaluate entry points into internal/par's
//     fan-out and internal/cache's singleflight — a dropped client or
//     an expired deadline stops the work, it doesn't leak it;
//   - pipeline: the job body is the same code path the CLIs use
//     (experiments.RunEvalCtx and friends), so responses are
//     byte-identical to the corresponding CLI output.
//
// Observability: every request gets an id that tags its log lines and
// rides back in the X-Request-Id header; /metrics exports queue depth,
// in-flight jobs, per-phase latency histograms, the compilation cache's
// counters, and the summed speculation counters (loads retired, check
// loads, failed checks) in Prometheus text format; /healthz flips to
// 503 when draining.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/harden"
	"repro/internal/machine"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// Config shapes a Server. The zero value is usable: one job per core,
// a queue as deep as the worker pool, a 60-second per-request timeout.
type Config struct {
	// Workers is the maximum number of jobs executing concurrently
	// (0 = one per core). Within-job parallelism is the client's choice
	// (EvalRequest.Workers), not the server's.
	Workers int
	// Queue is the maximum number of admitted jobs waiting for a worker
	// slot (0 = Workers). Beyond Workers+Queue, jobs get 429.
	Queue int
	// Timeout bounds each job's execution (0 = 60s; negative = none).
	Timeout time.Duration
	// Logger receives the request log (nil = log.Default()).
	Logger *log.Logger
}

// Server handles the specd endpoints. Create with New, serve
// s.Handler(), and call BeginDrain on shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	log     *log.Logger

	workSlots  chan struct{} // capacity = workers: holding one = executing
	queueSlots chan struct{} // capacity = queue: holding one = waiting

	drainOnce sync.Once
	drain     chan struct{} // closed when draining begins
	reqSeq    atomic.Uint64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = cfg.Workers
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		metrics:    newMetrics(),
		log:        cfg.Logger,
		workSlots:  make(chan struct{}, cfg.Workers),
		queueSlots: make(chan struct{}, cfg.Queue),
		drain:      make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /compile", s.job("compile", s.handleCompile))
	s.mux.HandleFunc("POST /evaluate", s.job("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("POST /sweep", s.job("sweep", s.handleSweep))
	return s
}

// Handler returns the HTTP handler serving every specd endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain starts a graceful drain: new and queued jobs are rejected
// with 503 while jobs already executing run to completion. Idempotent.
// The caller (cmd/specd) pairs it with http.Server.Shutdown, which
// stops accepting connections and waits for in-flight handlers.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		close(s.drain)
		s.log.Printf("drain: rejecting new work, finishing in-flight jobs")
	})
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"requestID"`
}

func (s *Server) writeError(w http.ResponseWriter, id string, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(errorBody{Error: err.Error(), RequestID: id})
	w.Write(append(data, '\n'))
}

// statusFor maps a job error to an HTTP status: bad input — a malformed
// body, a config the pipeline rejects as invalid, or MiniC source the
// frontend rejects — is the client's fault (400, or 413 for an
// oversized body), an expired
// per-request deadline is 504, everything else — including a cancelled
// upstream — is reported as 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errBadRequest), errors.Is(err, repro.ErrInvalidConfig), errors.As(err, new(*source.Error)):
		return http.StatusBadRequest
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// errBadRequest marks malformed or semantically invalid request bodies.
var errBadRequest = errors.New("bad request")

// errTooLarge marks a request body over maxBodyBytes.
var errTooLarge = errors.New("request body too large")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// job wraps a handler body with the whole service contract: request id,
// draining check, admission control (429 queue-full, 503 on drain),
// per-request timeout, panic-to-500 recovery, request logging, and the
// requests_total / phase-latency metrics.
func (s *Server) job(endpoint string, body func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		code := s.serveJob(w, r, endpoint, id, body)
		s.metrics.countRequest(endpoint, code)
		s.metrics.observePhase(endpoint, time.Since(start).Seconds())
		s.log.Printf("[%s] %s %s -> %d (%s)", id, r.Method, r.URL.Path, code, time.Since(start).Round(time.Microsecond))
	}
}

// serveJob runs one request through admission and execution and returns
// the status code it wrote.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, endpoint, id string, body func(ctx context.Context, r *http.Request) (any, error)) (code int) {
	if s.Draining() {
		s.writeError(w, id, http.StatusServiceUnavailable, errors.New("server is draining"))
		return http.StatusServiceUnavailable
	}

	// admission: take a worker slot if one is free; otherwise wait in
	// the bounded queue. A full queue rejects immediately — the client
	// can tell overload (429) apart from shutdown (503).
	select {
	case s.workSlots <- struct{}{}:
	default:
		select {
		case s.queueSlots <- struct{}{}:
		default:
			s.writeError(w, id, http.StatusTooManyRequests, errors.New("job queue is full"))
			return http.StatusTooManyRequests
		}
		s.metrics.queueDepth.Add(1)
		select {
		case s.workSlots <- struct{}{}:
			s.metrics.queueDepth.Add(-1)
			<-s.queueSlots
		case <-s.drain:
			s.metrics.queueDepth.Add(-1)
			<-s.queueSlots
			s.writeError(w, id, http.StatusServiceUnavailable, errors.New("server is draining"))
			return http.StatusServiceUnavailable
		case <-r.Context().Done():
			s.metrics.queueDepth.Add(-1)
			<-s.queueSlots
			s.writeError(w, id, http.StatusServiceUnavailable, fmt.Errorf("cancelled while queued: %w", r.Context().Err()))
			return http.StatusServiceUnavailable
		}
	}
	defer func() { <-s.workSlots }()

	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	result, err := s.runBody(ctx, id, r, body)
	if err != nil {
		code = statusFor(err)
		s.writeError(w, id, code, err)
		return code
	}
	w.Header().Set("Content-Type", "application/json")
	var data []byte
	switch v := result.(type) {
	case []byte: // pre-rendered (the byte-identical /evaluate path)
		data = v
	default:
		data, err = json.MarshalIndent(result, "", "  ")
		if err != nil {
			code = http.StatusInternalServerError
			s.writeError(w, id, code, err)
			return code
		}
		data = append(data, '\n')
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return http.StatusOK
}

// runBody executes the handler body with panic containment: a panicking
// job produces a 500 for that request and a stack trace in the log, not
// a dead process.
func (s *Server) runBody(ctx context.Context, id string, r *http.Request, body func(ctx context.Context, r *http.Request) (any, error)) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Printf("[%s] panic: %v\n%s", id, p, debug.Stack())
			result, err = nil, fmt.Errorf("internal error: job panicked: %v", p)
		}
	}()
	return body(ctx, r)
}

// maxBodyBytes bounds a JSON request body.
const maxBodyBytes = 16 << 20

// decodeJSON decodes the request body into v. The body must hold
// exactly one JSON value with no unknown fields (400 otherwise) and fit
// in maxBodyBytes (413 otherwise).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("a second JSON value")
		}
		err = fmt.Errorf("trailing data after the body: %w", err)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("%w: over %d bytes", errTooLarge, maxBodyBytes)
	}
	return badRequestf("decoding body: %v", err)
}

// --- endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(experiments.ListWorkloads(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}

// countSpecheck records a verify-enabled compilation's outcome in the
// specheck metrics: a clean pass increments verified, a *specheck.Error
// adds its violation count. Call only when verification actually ran.
func (s *Server) countSpecheck(err error) {
	if err == nil {
		s.metrics.specheckVerified.Add(1)
		return
	}
	var se *specheck.Error
	if errors.As(err, &se) {
		s.metrics.specheckViolations.Add(int64(len(se.Violations)))
	}
}

// countHarden folds one hardened build's report into the leak and fence
// counters. A nil report (no hardening requested) is a no-op.
func (s *Server) countHarden(rep *harden.Report) {
	if rep == nil {
		return
	}
	s.metrics.leaksFound.Add(int64(rep.LeaksFound))
	s.metrics.fencesInserted.Add(int64(rep.FencesInserted))
}

// CompileRequest is POST /compile's body: raw MiniC source plus an
// optional build config. Verify runs the per-pass speculation-soundness
// checker during the build (also reachable as config.VerifyPasses); a
// violation fails the request and shows up in the
// specd_specheck_violations_total counter. Harden runs the
// speculative-leak mitigation pass ("fence" or "hoist", also reachable
// as config.Harden); leaks found and fences inserted land in the
// specd_leaks_found_total / specd_fences_inserted_total counters.
type CompileRequest struct {
	Source  string        `json:"source"`
	Config  *repro.Config `json:"config,omitempty"`
	Workers int           `json:"workers,omitempty"`
	Verify  bool          `json:"verify,omitempty"`
	Harden  string        `json:"harden,omitempty"`
}

// CompileResponse reports what the pipeline did: per-build optimizer
// statistic totals, the hardening report when a policy was requested,
// and the profiling failure, if any (compilation still succeeds under
// the static-estimate fallback; the caller decides whether that is
// fatal).
type CompileResponse struct {
	Functions  int            `json:"functions"`
	Stats      ssapre.Stats   `json:"stats"`
	Harden     *harden.Report `json:"harden,omitempty"`
	ProfileErr string         `json:"profileErr,omitempty"`
}

func (s *Server) handleCompile(ctx context.Context, r *http.Request) (any, error) {
	var req CompileRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Source == "" {
		return nil, badRequestf("empty source")
	}
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
	b, err := repro.BuildCtx(ctx, req.Source, cfg)
	if errors.Is(err, repro.ErrInvalidConfig) {
		return nil, err // rejected before compiling: count nothing
	}
	s.metrics.countSpecPolicy(cfg.Spec)
	if cfg.VerifyPasses {
		s.countSpecheck(err)
	}
	if err != nil {
		return nil, err
	}
	s.countHarden(b.Harden)
	resp := &CompileResponse{
		Functions: b.Functions,
		Stats:     b.TotalStats(),
		Harden:    b.Harden,
	}
	if b.ProfileErr != nil {
		resp.ProfileErr = b.ProfileErr.Error()
	}
	return resp, nil
}

// knownWorkload maps an unregistered workload name to a 400 before the
// job body runs. Resolution includes the hidden kernels: they are
// servable by name, just absent from GET /workloads.
func knownWorkload(name string) error {
	if _, ok := workloads.Resolve(name); !ok {
		return badRequestf("unknown workload %q", name)
	}
	return nil
}

func (s *Server) handleEvaluate(ctx context.Context, r *http.Request) (any, error) {
	var req experiments.EvalRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := knownWorkload(req.Workload); err != nil {
		return nil, err
	}
	res, err := experiments.RunEvalCtx(ctx, req)
	if errors.Is(err, repro.ErrInvalidConfig) {
		return nil, err // rejected before compiling: count nothing
	}
	// mirror RunEvalCtx's config defaulting for the policy counter
	mode := repro.SpecProfile
	if req.Config != nil {
		mode = req.Config.Spec
	}
	s.metrics.countSpecPolicy(mode)
	if req.Verify || (req.Config != nil && req.Config.VerifyPasses) {
		s.countSpecheck(err)
	}
	if err != nil {
		return nil, err
	}
	s.countHarden(res.Harden)
	s.metrics.addSpec(res.Result.Counters.LoadsRetired, res.Result.Counters.CheckLoads, res.Result.Counters.FailedChecks)
	// MarshalEval, not a local encoder: the bytes must match the CLI
	return experiments.MarshalEval(res)
}

// SweepRequest is POST /sweep's body: one workload re-timed under a
// grid of machine configs. Via the record-and-replay path (PR 3) the
// program executes functionally once and every grid point is a cheap
// trace replay sharing that one recording.
type SweepRequest struct {
	Workload string           `json:"workload"`
	Configs  []machine.Config `json:"configs,omitempty"` // nil = the standard sensitivity grid
	Workers  int              `json:"workers,omitempty"`
}

// SweepResponse is the sweep's grid of measurements, index-aligned
// with the requested configs.
type SweepResponse struct {
	Workload string                     `json:"workload"`
	Points   []experiments.MachinePoint `json:"points"`
}

func (s *Server) handleSweep(ctx context.Context, r *http.Request) (any, error) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := knownWorkload(req.Workload); err != nil {
		return nil, err
	}
	points, err := experiments.RunMachineSweepCtx(ctx, req.Workload, req.Configs, req.Workers)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		s.metrics.addSpec(0, 0, p.FailedChecks)
	}
	return &SweepResponse{Workload: req.Workload, Points: points}, nil
}
