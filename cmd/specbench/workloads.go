package main

import (
	"encoding/json"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/harden"
	"repro/internal/server"
	"repro/internal/workloads"
)

// kind is the class of one benchmark request.
type kind int

const (
	evalWarm    kind = iota // POST /evaluate from the warmed pool
	evalCold                // POST /evaluate on inputs the server has never seen
	sweepGrid               // POST /sweep with the standard 24-point grid
	compileHard             // POST /compile with verify and harden
	numKinds
)

// workload is one traffic mix driven against specd.
type workload struct {
	name string
	// mix is the percentage of requests of each kind.
	mix [numKinds]int
	// open selects an open loop at openRate requests per second from
	// `senders` goroutines; otherwise `closedClients` closed-loop clients
	// each wait for a reply before sending their next request.
	open bool
}

// concurrency is how many requests the workload has in flight at most.
func (wl workload) concurrency() int {
	if wl.open {
		return senders
	}
	return closedClients
}

// The workloads, and why each exists:
//
//   - eval-warm: every frontend, profile and trace lookup hits, so time
//     goes to compiling (built code is not cached), one replay and
//     HTTP/JSON — where a compile-speed or serving-overhead change shows.
//   - eval-cold: every request pays a profiling run, a trace record and
//     cache inserts and evictions; compile work equals eval-warm's, so
//     the difference between the two isolates the cold layers.
//   - sweep-grid: ReplayBatch over 24 machine configs dominates; a
//     replay or timing-model change shows here and barely on eval-warm.
//   - serve-mix: requests of different cost queue behind each other in
//     specd's worker slots under an arrival schedule, and it is the only
//     workload running per-pass verification and hardening. Warm
//     evaluations and compiles take about 3 ms, cold evaluations and
//     sweeps about 15 ms; with 80% light and 20% heavy requests the
//     median falls inside the light cluster and p90 inside the heavy
//     one. A 50/20/10/20 mix put the median at the light cluster's edge,
//     where it moved up to 30% between seeds.
var workloadList = []workload{
	{name: "eval-warm", mix: [numKinds]int{evalWarm: 100}},
	{name: "eval-cold", mix: [numKinds]int{evalCold: 100}},
	{name: "sweep-grid", mix: [numKinds]int{sweepGrid: 100}},
	{name: "serve-mix", mix: [numKinds]int{evalWarm: 65, evalCold: 10, sweepGrid: 10, compileHard: 15}, open: true},
}

const (
	// closedClients is the closed-loop client count. One client leaves
	// the second core of the 2-core reference box to the request's own
	// parallel work, the garbage collector and the client: with two, both
	// cores were saturated, and time the shared host took from either one
	// went straight into the latencies, which then spread two to three
	// times as widely between runs.
	closedClients = 1
	// senders is the open loop's sender count: at most nproc goroutines
	// and keep-alive connections, so requests can queue behind each other
	// in specd's worker slots.
	senders = 2
	// openRate is serve-mix's arrival rate, requests per second.
	openRate = 120
	// sloLimit is the latency within which a request counts as served in
	// time, measured from when it was due.
	sloLimit = 50 * time.Millisecond
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated specd request.
type request struct {
	kind kind
	path string
	body []byte
	// want is the verified set-up reply every later reply to the same
	// request must equal byte for byte (for the baseline builds, only
	// the set-up reply); nil for eval-cold, whose outputs are checked
	// against the reference interpreter instead.
	want *[]byte
	// kernel and args identify an evaluation, for the reference check.
	kernel workloads.Workload
	args   []int64
}

// poolModes are the speculation modes of the warm evaluation pool.
var poolModes = []repro.SpecMode{repro.SpecProfile, repro.SpecCost, repro.SpecHeuristic}

// fixtures are the fixed request sets set-up warms and verifies.
type fixtures struct {
	// pool is eval-warm's 48 evaluations: 8 kernels × poolModes × the
	// training and reference inputs as measurement arguments.
	pool []*request
	// profileRef[i] is the pool's profile-mode evaluation of kernel i at
	// its reference input: what kernel i's sweep and baseline compare to.
	profileRef []*request
	// specOff holds the non-speculative build of every kernel at its
	// reference input, the baseline of load_reduction_pct.
	specOff []*request
	// sweeps holds one standard-grid sweep per kernel.
	sweeps []*request
	// compiles holds every kernel under both harden policies.
	compiles []*request
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return data
}

func evalRequest(k kind, w workloads.Workload, cfg repro.Config, args []int64) *request {
	return &request{
		kind: k, path: "/evaluate",
		body:   mustJSON(experiments.EvalRequest{Workload: w.Name, Config: &cfg, Args: args}),
		want:   new([]byte),
		kernel: w, args: args,
	}
}

func newFixtures() *fixtures {
	fx := &fixtures{}
	for _, w := range workloads.All() {
		for _, mode := range poolModes {
			fx.pool = append(fx.pool,
				evalRequest(evalWarm, w, repro.Config{Spec: mode}, w.ProfileArgs),
				evalRequest(evalWarm, w, repro.Config{Spec: mode}, w.RefArgs))
			if mode == repro.SpecProfile {
				fx.profileRef = append(fx.profileRef, fx.pool[len(fx.pool)-1])
			}
		}
		fx.specOff = append(fx.specOff, evalRequest(evalWarm, w, repro.Config{Spec: repro.SpecOff}, w.RefArgs))
		fx.sweeps = append(fx.sweeps, &request{
			kind: sweepGrid, path: "/sweep",
			body: mustJSON(server.SweepRequest{Workload: w.Name}),
			want: new([]byte), kernel: w,
		})
		for _, pol := range []harden.Policy{harden.PolicyFence, harden.PolicyHoist} {
			fx.compiles = append(fx.compiles, &request{
				kind: compileHard, path: "/compile",
				body: mustJSON(server.CompileRequest{
					Source: w.Src,
					Config: &repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs},
					Verify: true, Harden: string(pol),
				}),
				want: new([]byte), kernel: w,
			})
		}
	}
	return fx
}

// warmSet is what set-up sends for workload wl besides the baseline
// builds: the pool always (every workload reports the simulated-cycle
// metrics, and sweeps are checked against the pool), plus the sweeps and
// compiles the workload's traffic draws from.
func (fx *fixtures) warmSet(wl workload) []*request {
	set := append([]*request(nil), fx.pool...)
	if wl.mix[sweepGrid] > 0 {
		set = append(set, fx.sweeps...)
	}
	if wl.mix[compileHard] > 0 {
		set = append(set, fx.compiles...)
	}
	return set
}

// stream is a workload's seeded request sequence. Requests are drawn
// under a lock in one global order, so the sequence depends only on the
// seed, whichever client takes each request.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
	n   int64
	wl  workload
	fx  *fixtures
	ws  []workloads.Workload
}

func newStream(seed uint64, wl workload, fx *fixtures) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, 1)), wl: wl, fx: fx, ws: workloads.All()}
}

func (s *stream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	pick := s.rng.IntN(100)
	k := kind(0)
	for pick >= s.wl.mix[k] {
		pick -= s.wl.mix[k]
		k++
	}
	switch k {
	case evalWarm:
		return s.fx.pool[s.rng.IntN(len(s.fx.pool))]
	case sweepGrid:
		return s.fx.sweeps[s.rng.IntN(len(s.fx.sweeps))]
	case compileHard:
		return s.fx.compiles[s.rng.IntN(len(s.fx.compiles))]
	}
	w := s.ws[s.rng.IntN(len(s.ws))]
	train := s.drawArgs(w.ProfileArgs)
	r := evalRequest(evalCold, w, repro.Config{Spec: repro.SpecProfile, ProfileArgs: train}, s.drawArgs(w.RefArgs))
	r.want = nil
	return r
}

// drawArgs draws a fresh input shaped like a published one: the leading
// argument (every kernel's problem size) from [base, 2·base), the rest
// as published, plus a trailing argument no kernel reads, set to the
// request's sequence number. The trailing argument makes every training
// and measurement input distinct, so each eval-cold request misses every
// cache tier even on kernels whose size range holds a dozen values.
func (s *stream) drawArgs(base []int64) []int64 {
	args := slices.Clone(base)
	args[0] += s.rng.Int64N(base[0])
	return append(args, s.n)
}

// arrivals returns the due times of an open loop at rate requests per
// second over d: a Poisson process conditioned on its expected count,
// i.e. rate·d independent uniform draws, sorted. Conditioning fixes the
// offered load exactly while keeping exponential-like gaps.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*d.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(out)
	return out
}
