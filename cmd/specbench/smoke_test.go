package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json that
// names what this command emits.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload with short durations, including the
// traced run, and checks that each passes its correctness checks,
// stresses the layers it claims to, and emits exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	if len(declared) != len(workloadList) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(declared), len(workloadList))
	}

	for _, wl := range workloadList {
		if !declared[wl.name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", wl.name)
		}
		spans := filepath.Join(t.TempDir(), "spans.json")
		rep, err := runWorkload(context.Background(), wl, params{
			seed: 1, window: 500 * time.Millisecond, warmup: 200 * time.Millisecond,
			setups: 1, trace: true, traceN: 20, spans: spans, coldChecks: 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", wl.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		checkNames(t, wl.name+" end-to-end", rep.endToEnd, spec.EndToEnd)
		checkNames(t, wl.name+" per-layer", rep.perLayer, spec.PerLayer)

		pl := rep.perLayer.values
		runs, computes := pl["interp.profile_runs_per_req"].Value, pl["cache.computes_per_req"].Value
		switch wl.name {
		case "eval-warm", "sweep-grid":
			if runs != 0 || computes != 0 {
				t.Errorf("%s: %v profile runs and %v cache computes per request, want 0", wl.name, runs, computes)
			}
		case "eval-cold":
			if runs < 0.9 {
				t.Errorf("%s: %v profile runs per request, want at least 0.9", wl.name, runs)
			}
		}
		if cov := pl["trace.coverage_pct"].Value; cov < 90 {
			t.Errorf("%s: child spans cover %.1f%% of request time, want at least 90%%", wl.name, cov)
		}

		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var sf spanFile
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Fatal(err)
		}
		roots := map[int]bool{}
		for _, s := range sf.Spans {
			if s.Parent == 0 {
				roots[s.Req] = true
			}
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", wl.name, s)
			}
		}
		if sf.Workload != wl.name || len(roots) != 20 {
			t.Errorf("%s: spans file names workload %q with %d root spans, want 20", wl.name, sf.Workload, len(roots))
		}
	}
}

// checkNames fails unless got holds exactly the declared metrics.
func checkNames(t *testing.T, what string, got metricSet, declared []specMetric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
		if g, ok := got.values[m.Name]; !ok {
			t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s is emitted in %s, declared in %s", what, m.Name, g.Unit, m.Unit)
		}
	}
	for _, name := range got.names {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", what, name)
		}
	}
}
