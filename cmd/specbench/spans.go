package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed layer call of a traced request. IDs are per request
// and start at 1; Parent 0 marks the request's root span. Times are
// nanoseconds since the traced pass started.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects one request's spans in memory. Layer calls that fan out
// (the SSAPRE verify hook, the sweep's replay batches) record from
// several goroutines, hence the mutex.
type tracer struct {
	base  time.Time
	req   int
	mu    sync.Mutex
	spans []span
}

// scope is an open span that further spans nest under. The zero scope
// records nothing, which is how the driver runs with tracing off.
type scope struct {
	t  *tracer
	id int
}

// begin opens a child span of s named name.
func (s scope) begin(name string) scope {
	if s.t == nil {
		return s
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	id := len(s.t.spans) + 1
	s.t.spans = append(s.t.spans, span{Req: s.t.req, ID: id, Parent: s.id, Name: name, Start: now})
	s.t.mu.Unlock()
	return scope{s.t, id}
}

// end closes the span s opened by begin.
func (s scope) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// spanSummary is what a traced pass reports about its spans.
type spanSummary struct {
	// self maps a span name to the summed self time, in nanoseconds, of
	// every span with that name: its duration minus the part of it that
	// its children cover.
	self map[string]int64
	// rootNs is the summed duration of the root spans and coveredNs the
	// part of it their direct children cover.
	rootNs, coveredNs int64
}

// summarize computes self times and root coverage over the spans of
// every request.
func summarize(spans []span) spanSummary {
	sum := spanSummary{self: map[string]int64{}}
	type key struct{ req, id int }
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	for _, s := range spans {
		covered := coveredNs(s, children[key{s.Req, s.ID}])
		sum.self[s.Name] += s.End - s.Start - covered
		if s.Parent == 0 {
			sum.rootNs += s.End - s.Start
			sum.coveredNs += covered
		}
	}
	return sum
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's. Children of a fan-out overlap each other, so
// summing their durations would over-count.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
