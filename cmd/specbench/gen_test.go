package main

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestStreamsAreSeeded(t *testing.T) {
	fx := newFixtures()
	for _, wl := range workloadList {
		a, b, c := newStream(1, wl, fx), newStream(1, wl, fx), newStream(2, wl, fx)
		differs := false
		for i := 0; i < 300; i++ {
			ra, rb, rc := a.next(), b.next(), c.next()
			if !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: request %d differs between two streams of seed 1", wl.name, i)
			}
			differs = differs || !bytes.Equal(ra.body, rc.body)
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same stream", wl.name)
		}
	}
}

func TestStreamMix(t *testing.T) {
	wl, _ := workloadByName("serve-mix")
	st := newStream(5, wl, newFixtures())
	const n = 20000
	var got [numKinds]int
	for i := 0; i < n; i++ {
		got[st.next().kind]++
	}
	for k, pct := range wl.mix {
		if share := 100 * float64(got[k]) / n; math.Abs(share-float64(pct)) > 1.5 {
			t.Errorf("kind %d: %.1f%% of requests, want %d%%", k, share, pct)
		}
	}
}

func TestArrivalsRate(t *testing.T) {
	due := arrivals(rand.New(rand.NewPCG(7, 2)), openRate, 30*time.Second)
	var gaps []float64
	for i := 1; i < len(due); i++ {
		gaps = append(gaps, (due[i] - due[i-1]).Seconds())
	}
	m := mean(gaps)
	if rate := 1 / m; math.Abs(rate-openRate)/openRate > 0.02 {
		t.Errorf("mean rate %.2f/s, want %d/s within 2%%", rate, openRate)
	}
	// exponential gaps have a coefficient of variation of 1; a fixed
	// spacing would have 0
	var v float64
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / m; cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
}

// TestOpenLoopStallPropagates serves an open loop from a one-worker fake
// that stalls once: requests due during the stall queue behind it, and
// because latency runs from the due time, the stall shows in theirs
// while their own service times stay short.
func TestOpenLoopStallPropagates(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()

	var reqs []*request
	var due []time.Duration
	for i := 0; i < 30; i++ {
		reqs = append(reqs, &request{path: "/"})
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	out := openLoop(context.Background(), c, reqs, due)
	if len(out.errs) > 0 {
		t.Fatal(errSummary(out.errs))
	}
	slowLatency, slowService := 0, 0
	for _, s := range out.samples {
		if s.latency >= 100*time.Millisecond {
			slowLatency++
		}
		if s.service >= 100*time.Millisecond {
			slowService++
		}
	}
	// the 21 requests due in the first 200 ms wait 100 ms or more for the
	// stall to end
	if slowLatency < 15 {
		t.Errorf("%d requests took 100 ms or more from their due time, want at least 15", slowLatency)
	}
	// only the stalled request and the one sent beside it are slow to serve
	if slowService > 2 {
		t.Errorf("%d requests took 100 ms or more from their send time, want at most 2", slowService)
	}
}
