package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return New(cfg)
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHealthzAndWorkloads(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = ts.Client().Get(ts.URL + "/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var ws []experiments.WorkloadInfo
	if err := json.Unmarshal(readAll(t, resp), &ws); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ws {
		if w.Name == "equake" {
			found = true
		}
	}
	if !found {
		t.Fatalf("workloads missing equake: %+v", ws)
	}
}

// parseCounters reads the Prometheus text rendering into name{labels} ->
// value for every non-comment sample line.
func parseCounters(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return parseCounters(t, string(readAll(t, resp)))
}

// TestAdmissionControlAndDrain exercises the whole admission state
// machine on a Workers=1, Queue=1 server with a controllable job body:
// the first job executes, the second queues, the third bounces with 429;
// BeginDrain rejects the queued job with 503 while the in-flight job
// finishes with 200, healthz flips to 503, and every *_total counter in
// /metrics is monotone across the drain.
func TestAdmissionControlAndDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 1})

	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{}, 4)
	s.mux.HandleFunc("POST /test", s.job("test", func(ctx context.Context, r *http.Request) (any, error) {
		started <- struct{}{}
		<-block
		return map[string]string{"ok": "true"}, nil
	}))

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	do := func(ch chan<- result) {
		resp, err := ts.Client().Post(ts.URL+"/test", "application/json", strings.NewReader("{}"))
		if err != nil {
			ch <- result{-1, err.Error()}
			return
		}
		ch <- result{resp.StatusCode, string(readAll(t, resp))}
	}

	// job 1: takes the single worker slot and blocks
	r1 := make(chan result, 1)
	go do(r1)
	<-started

	// job 2: admitted into the queue (depth becomes 1)
	r2 := make(chan result, 1)
	go do(r2)
	waitFor(t, func() bool { return s.metrics.queueDepth.Load() == 1 })

	before := scrape(t, ts)
	if got := before["specd_queue_depth"]; got != 1 {
		t.Fatalf("queue depth gauge = %g, want 1", got)
	}
	if got := before["specd_inflight_jobs"]; got != 1 {
		t.Fatalf("inflight gauge = %g, want 1", got)
	}

	// job 3: queue full -> immediate 429
	r3 := make(chan result, 1)
	go do(r3)
	if res := <-r3; res.code != http.StatusTooManyRequests {
		t.Fatalf("third job = %d %q, want 429", res.code, res.body)
	}

	// drain: the queued job is rejected with 503, the in-flight one
	// runs to completion
	s.BeginDrain()
	if res := <-r2; res.code != http.StatusServiceUnavailable {
		t.Fatalf("queued job after drain = %d %q, want 503", res.code, res.body)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	release()
	if res := <-r1; res.code != http.StatusOK {
		t.Fatalf("in-flight job after drain = %d %q, want 200", res.code, res.body)
	}
	// a brand-new job is rejected up front
	rNew := make(chan result, 1)
	go do(rNew)
	if res := <-rNew; res.code != http.StatusServiceUnavailable {
		t.Fatalf("new job while draining = %d, want 503", res.code)
	}

	after := scrape(t, ts)
	for name, v := range before {
		if strings.Contains(name, "_total") && after[name] < v {
			t.Errorf("counter %s went backwards: %g -> %g", name, v, after[name])
		}
	}
	if after["specd_queue_depth"] != 0 || after["specd_inflight_jobs"] != 0 {
		t.Fatalf("gauges after drain: depth=%g inflight=%g, want 0/0",
			after["specd_queue_depth"], after["specd_inflight_jobs"])
	}
	wantCodes := map[string]float64{
		`specd_requests_total{endpoint="test",code="200"}`: 1,
		`specd_requests_total{endpoint="test",code="429"}`: 1,
		`specd_requests_total{endpoint="test",code="503"}`: 2,
	}
	for series, want := range wantCodes {
		if got := after[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicRecovery proves a panicking job body yields a 500 with the
// JSON error envelope for that request only — the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	boom := true
	s.mux.HandleFunc("POST /test", s.job("test", func(ctx context.Context, r *http.Request) (any, error) {
		if boom {
			panic("kaboom")
		}
		return map[string]string{"ok": "true"}, nil
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts, "/test", struct{}{})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id on panic response")
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %q", body)
	}
	if !strings.Contains(e.Error, "kaboom") || e.RequestID == "" {
		t.Fatalf("envelope = %+v", e)
	}

	boom = false
	resp = postJSON(t, ts, "/test", struct{}{})
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a panic = %d, want 200 (worker slot leaked?)", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = `"int main() { print(1); return 0; }"`
	cases := []struct {
		path string
		body string
	}{
		{"/evaluate", `{"workload":"no-such-workload"}`},
		{"/sweep", `{"workload":"no-such-workload"}`},
		{"/evaluate", `{not json`},
		{"/evaluate", `{"workload":"equake","bogusField":1}`},
		{"/compile", `{"source":""}`},
		// configs naming a mode, policy, tier or function that does not exist
		{"/evaluate", `{"workload":"equake","config":{"Spec":7}}`},
		{"/evaluate", `{"workload":"equake","config":{"Spec":-1}}`},
		{"/evaluate", `{"workload":"equake","harden":"bogus"}`},
		{"/evaluate", `{"workload":"equake","config":{"Spec":1,"Harden":"bogus"}}`},
		{"/evaluate", `{"workload":"drift","fnTiers":{"nosuchfn":"none"}}`},
		{"/evaluate", `{"workload":"drift","fnTiers":{"hot":"turbo"}}`},
		{"/evaluate", `{"workload":"drift","config":{"Spec":1,"FnSpec":{"nosuchfn":{}}}}`},
		{"/evaluate", `{"workload":"drift","config":{"Spec":1,"FnSpec":{"hot":{"Spec":9}}}}`},
		{"/compile", `{"source":` + src + `,"config":{"Spec":7}}`},
		{"/compile", `{"source":` + src + `,"config":{"Spec":-1}}`},
		{"/compile", `{"source":` + src + `,"harden":"bogus"}`},
		{"/compile", `{"source":` + src + `,"config":{"Harden":"bogus"}}`},
		{"/compile", `{"source":` + src + `,"config":{"FnSpec":{"nosuchfn":{}}}}`},
		{"/compile", `{"source":` + src + `,"config":{"FnSpec":{"main":{"Spec":-3}}}}`},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d %q, want 400", c.path, c.body, resp.StatusCode, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.RequestID == "" {
			t.Errorf("POST %s: error envelope = %q (%v)", c.path, body, err)
		}
	}
	// a rejected config is never counted, so no "specmode?" label appears
	for key, v := range scrape(t, ts) {
		if strings.HasPrefix(key, "specd_spec_policy_total") {
			t.Errorf("rejected request counted as a compilation: %s = %g", key, v)
		}
	}
}

// TestCompileSourceErrors pins that MiniC the frontend rejects is the
// client's fault: a syntax error, and source nested far past the
// parser's bound (which once overflowed specd's stack and killed it),
// get a 400 naming the position, and the server still answers after.
func TestCompileSourceErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const depth = 1_000_000
	for name, src := range map[string]string{
		"syntax error":       "int main() { return 1 +; }",
		"deep parentheses":   "int main() { return " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "; }",
		"long binary chain":  "int main() { return 1" + strings.Repeat("+1", depth) + "; }",
		"deep nested blocks": "int main() " + strings.Repeat("{", depth) + strings.Repeat("}", depth),
	} {
		resp := postJSON(t, ts, "/compile", map[string]string{"source": src})
		body := readAll(t, resp)
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "minic:1:") {
			t.Errorf("%s: error envelope = %.200q (%v), want a positioned MiniC error", name, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /compile = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the rejected sources = %d, want 200", resp.StatusCode)
	}
}

// TestRequestBodyBounds pins what a JSON request body may hold: one
// value and nothing after it but whitespace (400 otherwise), within
// maxBodyBytes (413 otherwise).
func TestRequestBodyBounds(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pad := strings.Repeat(" ", maxBodyBytes)
	const src = `"int main() { print(1); return 0; }"`
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"evaluate trailing junk", "/evaluate", `{"workload":"equake"} junk`, http.StatusBadRequest},
		{"evaluate second value", "/evaluate", `{"workload":"equake"} {}`, http.StatusBadRequest},
		{"evaluate over the cap", "/evaluate", `{"workload":"equake"` + pad + `}`, http.StatusRequestEntityTooLarge},
		{"evaluate trailing data over the cap", "/evaluate", `{"workload":"equake"}` + pad + `{}`, http.StatusRequestEntityTooLarge},
		{"evaluate trailing whitespace", "/evaluate", `{"workload":"equake"}` + "\n\t ", http.StatusOK},
		{"compile trailing junk", "/compile", `{"source":` + src + `} junk`, http.StatusBadRequest},
		{"compile second value", "/compile", `{"source":` + src + `} {"source":""}`, http.StatusBadRequest},
		{"compile over the cap", "/compile", `{"source":` + src + pad + `}`, http.StatusRequestEntityTooLarge},
		{"compile trailing whitespace", "/compile", `{"source":` + src + "}\n", http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != c.want {
				t.Fatalf("POST %s = %d %.200q, want %d", c.path, resp.StatusCode, body, c.want)
			}
			if c.want == http.StatusOK {
				return
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.RequestID == "" {
				t.Errorf("error envelope = %q (%v)", body, err)
			}
		})
	}
}

// TestRequestTimeout proves the per-request deadline converts to a 504
// instead of hanging the slot.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Timeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts, "/evaluate", experiments.EvalRequest{Workload: "equake"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out evaluate = %d %q, want 504", resp.StatusCode, body)
	}
}

// TestCompileSpecPolicyMetric checks that served compilations show up in
// specd_spec_policy_total under the speculation mode they ran with: one
// cost-policy compile, one defaulted (profile-guided) compile.
func TestCompileSpecPolicyMetric(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = `int g = 0; int main() { g = 7; print(g); return 0; }`
	for _, req := range []CompileRequest{
		{Source: src, Config: &repro.Config{Spec: repro.SpecCost, SpecThreshold: 2}},
		{Source: src}, // defaults to SpecProfile
	} {
		resp := postJSON(t, ts, "/compile", req)
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile = %d %q", resp.StatusCode, body)
		}
	}
	counters := scrape(t, ts)
	for _, mode := range []string{"cost", "profile"} {
		key := fmt.Sprintf("specd_spec_policy_total{mode=%q}", mode)
		if counters[key] != 1 {
			t.Errorf("%s = %g, want 1", key, counters[key])
		}
	}
}

// TestEvaluateByteIdentical is the service's core contract: POST
// /evaluate returns exactly the bytes `experiments -exp eval -json`
// prints for the same (workload, config) — cold cache and warm cache,
// serial and 8-way parallel execution.
func TestEvaluateByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and times a workload")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// the CLI rendering of the same request (cmd/experiments -exp eval)
	cliBytes := func(workers int) []byte {
		res, err := experiments.RunEvalCtx(context.Background(), experiments.EvalRequest{
			Workload: "equake", Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := experiments.MarshalEval(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	repro.ResetCaches()
	want := cliBytes(1)
	for _, cold := range []bool{true, false} {
		for _, workers := range []int{1, 8} {
			if cold {
				repro.ResetCaches()
			}
			resp := postJSON(t, ts, "/evaluate", experiments.EvalRequest{Workload: "equake", Workers: workers})
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cold=%v workers=%d: %d %q", cold, workers, resp.StatusCode, body)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("cold=%v workers=%d: server bytes differ from CLI bytes:\nserver: %s\ncli:    %s",
					cold, workers, body, want)
			}
		}
	}
}

// TestEvaluateHardenedByteIdentical extends the byte-identity contract
// to hardened builds: POST /evaluate with harden:"fence" must return
// exactly the bytes the CLI path produces for the same hardened
// request (including the embedded harden report), and the served
// request must show up in the hardening counters.
func TestEvaluateHardenedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and times a workload")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wantLeaks, wantFences float64
	for _, pol := range []string{"fence", "hoist"} {
		req := experiments.EvalRequest{Workload: "mcf", Harden: pol}
		res, err := experiments.RunEvalCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiments.MarshalEval(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Harden == nil {
			t.Fatalf("%s: CLI result carries no harden report", pol)
		}
		if res.Harden.Residual != 0 {
			t.Fatalf("%s: hardened build has %d residual leaks", pol, res.Harden.Residual)
		}
		wantLeaks += float64(res.Harden.LeaksFound)
		wantFences += float64(res.Harden.FencesInserted)

		resp := postJSON(t, ts, "/evaluate", req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: evaluate = %d %q", pol, resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: server bytes differ from CLI bytes:\nserver: %s\ncli:    %s", pol, body, want)
		}
	}

	// the counters must render (even at zero: bundled workloads are
	// leak-free by construction) and agree with the served reports
	counters := scrape(t, ts)
	for name, want := range map[string]float64{
		"specd_leaks_found_total":     wantLeaks,
		"specd_fences_inserted_total": wantFences,
	} {
		got, ok := counters[name]
		if !ok {
			t.Errorf("%s missing from /metrics", name)
		} else if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestEvaluateExplicitFnTiers: explicit fnTiers land in the echoed
// config and reproduce the CLI's bytes; an unknown tier name is the
// client's fault.
func TestEvaluateExplicitFnTiers(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := experiments.EvalRequest{Workload: "drift", FnTiers: map[string]string{"hot": "none"}}
	resp := postJSON(t, ts, "/evaluate", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d %s", resp.StatusCode, body)
	}
	want, err := experiments.RunEvalCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := experiments.MarshalEval(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(wantBytes) {
		t.Errorf("explicit-tier response differs from CLI bytes:\n got %s\nwant %s", body, wantBytes)
	}

	resp = postJSON(t, ts, "/evaluate", experiments.EvalRequest{Workload: "drift", FnTiers: map[string]string{"hot": "turbo"}})
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown tier name = %d, want 400", resp.StatusCode)
	}
}

// TestRepeatedRequestsCompileNothing pins the build cache at the service
// surface: once an /evaluate, a /sweep and a verified, hardened /compile
// have been served, repeating them (at other worker counts) leaves
// specd_builds_compiled_total flat, and every repeat's reply is
// byte-identical to the first — and, for /evaluate, to the CLI's bytes.
func TestRepeatedRequestsCompileNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and times a workload")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	small := machine.Defaults()
	small.ALATSize = 4
	type call struct {
		path string
		body any
	}
	requests := func(workers int) []call {
		return []call{
			{"/evaluate", experiments.EvalRequest{Workload: "equake", Workers: workers}},
			{"/sweep", SweepRequest{Workload: "equake", Configs: []machine.Config{machine.Defaults(), small}, Workers: workers}},
			{"/compile", CompileRequest{
				Source: w.Src, Verify: true, Harden: "hoist", Workers: workers,
				Config: &repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs},
			}},
		}
	}
	serve := func(workers int) [][]byte {
		t.Helper()
		var out [][]byte
		for _, r := range requests(workers) {
			resp := postJSON(t, ts, r.path, r.body)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d %q", r.path, resp.StatusCode, body)
			}
			out = append(out, body)
		}
		return out
	}

	first := serve(1)
	res, err := experiments.RunEvalCtx(context.Background(), experiments.EvalRequest{Workload: "equake"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := experiments.MarshalEval(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first[0], cli) {
		t.Fatalf("/evaluate bytes differ from the CLI's:\nserver: %s\ncli:    %s", first[0], cli)
	}
	const metric = "specd_builds_compiled_total"
	before, ok := scrape(t, ts)[metric]
	if !ok {
		t.Fatalf("%s missing from /metrics", metric)
	}
	for _, workers := range []int{1, 3} {
		again := serve(workers)
		for i, r := range requests(workers) {
			if !bytes.Equal(again[i], first[i]) {
				t.Errorf("workers=%d: repeated %s reply differs from the first", workers, r.path)
			}
		}
	}
	if after := scrape(t, ts)[metric]; after != before {
		t.Errorf("%s moved from %g to %g on repeated requests", metric, before, after)
	}
}

// TestCompileHarden checks the /compile surface of the hardening pass:
// a bad policy is a 400, a good one returns the report in the response.
func TestCompileHarden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = `int g = 0; int main() { g = 7; print(g); return 0; }`
	resp := postJSON(t, ts, "/compile", CompileRequest{Source: src, Harden: "lfence"})
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy = %d %q, want 400", resp.StatusCode, body)
	}

	resp = postJSON(t, ts, "/compile", CompileRequest{Source: src, Harden: "fence"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile = %d %q", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Harden == nil {
		t.Fatalf("hardened compile response carries no report: %s", body)
	}
	if cr.Harden.Residual != 0 {
		t.Fatalf("residual leaks in hardened compile: %+v", cr.Harden)
	}
}

// TestSweepEndpoint drives POST /sweep over a tiny explicit grid and
// checks the points are index-aligned with the request.
func TestSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and times a workload")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m1, m2 := machine.Defaults(), machine.Defaults()
	m2.ALATSize = 4
	resp := postJSON(t, ts, "/sweep", SweepRequest{
		Workload: "equake",
		Configs:  []machine.Config{m1, m2},
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d %q", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Workload != "equake" || len(sr.Points) != 2 {
		t.Fatalf("sweep response = %+v", sr)
	}
	for i, p := range sr.Points {
		if p.Cycles == 0 {
			t.Fatalf("point %d has zero cycles: %+v", i, p)
		}
	}
}

// TestSweepHugeALAT is the regression test for a /sweep that killed the
// process: the ALAT allocated its full configured capacity up front, so
// an ALATSize of 2^40 ran the runtime out of memory, which no recover
// can catch. The table now grows with use, so the request answers 200,
// and with far fewer live entries than either capacity it times exactly
// as the same sweep at ALATSize 4096.
func TestSweepHugeALAT(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and times a workload")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sweep := func(body string) experiments.MachinePoint {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %q", body, resp.StatusCode, data)
		}
		var sr SweepResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Points) != 1 {
			t.Fatalf("%s: %d points", body, len(sr.Points))
		}
		return sr.Points[0]
	}
	huge := sweep(`{"workload":"twolf","configs":[{"ALATSize":1099511627776}]}`)
	ref := sweep(`{"workload":"twolf","configs":[{"ALATSize":4096}]}`)
	if huge.Cycles != ref.Cycles || huge.FailedChecks != ref.FailedChecks || huge.Evictions != ref.Evictions {
		t.Errorf("ALATSize 2^40 = %+v, ALATSize 4096 = %+v", huge, ref)
	}
}

// TestSweepCancellation is the acceptance criterion in service form:
// POST /sweep with a client that disconnects mid-flight must observe the
// cancellation promptly (the handler returns; the slot frees) rather
// than timing the whole grid. A warm sweep finishes in about a
// millisecond, so the test serves the sweep through a route that holds
// it in its worker slot until the client has gone: the disconnect falls
// mid-flight by construction, not by a race against the sweep.
func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a workload")
	}
	s := newTestServer(t, Config{Workers: 1})
	held := make(chan struct{})
	swept := make(chan error, 1)
	s.mux.HandleFunc("POST /held-sweep", s.job("sweep", func(ctx context.Context, r *http.Request) (any, error) {
		// read the body while the client is still there, then wait for
		// it to leave
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		close(held)
		<-ctx.Done()
		res, err := s.handleSweep(ctx, r)
		swept <- err
		return res, err
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(SweepRequest{Workload: "equake", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/held-sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			readAll(t, resp)
		}
		done <- err
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep never took its worker slot")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep did not return promptly")
	}
	// the sweep itself must see the cancellation, not time the grid
	select {
	case err := <-swept:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep did not observe the cancellation")
	}
	// the worker slot must come back so the next job runs
	waitFor(t, func() bool { return s.metrics.inflight.Load() == 0 })
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cancel = %d", resp.StatusCode)
	}
}

// TestConcurrentRequestIDsUnique hammers a trivial job and checks every
// response carries a distinct request id.
func TestConcurrentRequestIDsUnique(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, Queue: 64})
	s.mux.HandleFunc("POST /test", s.job("test", func(ctx context.Context, r *http.Request) (any, error) {
		return map[string]string{"ok": "true"}, nil
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/test", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Error(err)
				return
			}
			readAll(t, resp)
			ids <- resp.Header.Get("X-Request-Id")
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty request id %q", id)
		}
		seen[id] = true
	}
}

// TestCompileInfiniteLoopTimesOut compiles a program that never ends
// under a 1 s request timeout: the profiling run looks at the request's
// context as it runs, so the compile answers 504 within the timeout
// plus a second and frees its worker, and /healthz still answers 200.
func TestCompileInfiniteLoopTimesOut(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Timeout: time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp := postJSON(t, ts, "/compile", CompileRequest{Source: "int main() { int i = 0; while (1) { i = i + 1; } return i; }"})
	body := readAll(t, resp)
	if elapsed := time.Since(start); resp.StatusCode != http.StatusGatewayTimeout || elapsed > 2*time.Second {
		t.Fatalf("compiling an infinite loop = %d %q after %v, want 504 within 2 s", resp.StatusCode, body, elapsed)
	}
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, health); health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the timeout = %d, want 200", health.StatusCode)
	}
}
