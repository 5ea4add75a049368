package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// layerSpans are the layer calls the stage driver times, in pipeline
// order. Each is reported as <name>_ms, its mean self time per request.
var layerSpans = []string{
	"server.decode", "source.frontend", "ir.clone",
	"alias.refine", "alias.analyze", "alias.annotate",
	"interp.profile", "profile.marshal", "profile.unmarshal",
	"core.flags", "ssapre.run", "specheck.verify", "ir.verify",
	"codegen.schedule", "codegen.lower", "harden.apply", "specheck.leaks",
	"machine.fingerprint", "machine.record", "machine.trace_codec", "machine.replay",
	"experiments.encode",
}

// spanFile is the JSON document the traced run writes.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracedRun replays the first p.traceN requests of the workload's stream
// through the stage driver, each pass from the driver's post-set-up
// cache state and with the workload's concurrency. After one discarded pass
// (the first pass grows the heap), passes run with spans off, on, on and
// off, so drift cancels out of trace.overhead_pct, the traced passes'
// slowdown. The per-layer metrics come from the first traced pass.
func tracedRun(ctx context.Context, wl workload, p params, fx *fixtures, base *driver, rep *report) error {
	st := newStream(p.seed, wl, fx)
	reqs := make([]*request, p.traceN)
	for i := range reqs {
		reqs[i] = st.next()
	}
	var d *driver
	var spans []span
	var took [2]time.Duration // spans off, on
	for i, traced := range []bool{false, false, true, true, false} {
		runtime.GC()
		pass := base.fork()
		elapsed, ss, err := replay(ctx, pass, reqs, wl.concurrency(), traced)
		if err != nil {
			return err
		}
		switch {
		case i == 0: // heap warm-up
		case !traced:
			took[0] += elapsed
		default:
			took[1] += elapsed
			if d == nil {
				d, spans = pass, ss
			}
		}
	}

	sum := summarize(spans)
	n := float64(len(reqs))
	pl := &rep.perLayer
	for _, name := range layerSpans {
		pl.add(name+"_ms", float64(sum.self[name])/n/1e6, "ms")
	}
	perReq := func(name string, v *atomic.Int64) { pl.add(name, float64(v.Load())/n, "count") }
	perReq("ssapre.eliminated_per_req", &d.eliminated)
	perReq("ssapre.spec_eliminated_per_req", &d.specEliminated)
	perReq("ssapre.checks_inserted_per_req", &d.checksInserted)
	perReq("codegen.instrs_per_req", &d.instrs)
	perReq("harden.fences_per_req", &d.fences)
	perReq("harden.hoisted_per_req", &d.hoisted)
	perReq("machine.configs_per_req", &d.configs)
	pl.add("machine.check_miss_ratio", float64(d.failedChecks.Load())/float64(d.checkLoads.Load()), "ratio")
	pl.add("machine.trace_kb_per_req", float64(d.traceBytes.Load())/1024/n, "KB")
	pl.add("trace.requests", n, "count")
	pl.add("trace.coverage_pct", 100*float64(sum.coveredNs)/float64(sum.rootNs), "%")
	pl.add("trace.overhead_pct", 100*(took[1].Seconds()/took[0].Seconds()-1), "%")

	if p.spans == "" {
		return nil
	}
	data, err := json.Marshal(spanFile{Workload: wl.name, Seed: p.seed, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p.spans), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p.spans, data, 0o644)
}

// replay serves reqs through d from n goroutines and returns the
// wall time taken and, when traced, every request's spans. Replies with
// a verified set-up reply must equal it.
func replay(ctx context.Context, d *driver, reqs []*request, n int, traced bool) (time.Duration, []span, error) {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var spans []span
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				var s scope
				if traced {
					s.t = &tracer{base: start, req: i}
				}
				got, err := d.serve(ctx, s, r.path, r.body)
				if err == nil && r.want != nil && !bytes.Equal(got, *r.want) {
					err = fmt.Errorf("stage driver: POST %s %s: reply differs from specd's", r.path, r.body)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if traced {
					spans = append(spans, s.t.spans...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), spans, firstErr
}
