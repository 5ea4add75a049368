package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestThresholdSweepTradeoff pins the shape of the cost-model threshold
// sweep on the mixprob kernel: raising θ only withdraws speculation
// (p=0 sites always speculate), so checks and failed checks are monotone
// non-increasing, and the neutral θ=1 must beat both over-speculation
// (θ far below 1 speculates the p=1/4 site, whose recovery cost exceeds
// the saved latency) and total refusal (the largest θ, which degrades
// to the base build).
func TestThresholdSweepTradeoff(t *testing.T) {
	s, err := RunThresholdSweepCtx(context.Background(), "mixprob", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) == 0 {
		t.Fatal("empty sweep")
	}
	for i := 1; i < len(s.Points); i++ {
		prev, cur := s.Points[i-1], s.Points[i]
		if cur.Checks > prev.Checks {
			t.Errorf("θ=%g has %d checks, more than θ=%g's %d: speculated set must shrink with θ",
				cur.Threshold, cur.Checks, prev.Threshold, prev.Checks)
		}
		if cur.FailedChecks > prev.FailedChecks {
			t.Errorf("θ=%g has %d failed checks, more than θ=%g's %d",
				cur.Threshold, cur.FailedChecks, prev.Threshold, prev.FailedChecks)
		}
	}
	var neutral, lowest, highest ThresholdPoint
	for _, p := range s.Points {
		if p.Threshold == 1 {
			neutral = p
		}
	}
	lowest, highest = s.Points[0], s.Points[len(s.Points)-1]
	if neutral.Threshold != 1 {
		t.Fatal("sweep grid lacks the neutral θ=1")
	}
	if neutral.Cycles >= lowest.Cycles {
		t.Errorf("neutral θ (%d cycles) does not beat over-speculation at θ=%g (%d cycles)",
			neutral.Cycles, lowest.Threshold, lowest.Cycles)
	}
	if neutral.Cycles >= highest.Cycles {
		t.Errorf("neutral θ (%d cycles) does not beat refusal at θ=%g (%d cycles)",
			neutral.Cycles, highest.Threshold, highest.Cycles)
	}
	// the sweep must actually exercise distinct cost decisions, not one
	// step function
	if s.DistinctBuilds < 3 {
		t.Errorf("only %d distinct speculative builds; the kernel's three break points should give >= 3", s.DistinctBuilds)
	}
	// θ large enough refuses every fractional site: code equals the base
	if highest.Checks != 0 || highest.Cycles != s.BaseCycles {
		t.Errorf("θ=%g should refuse all speculation: %d checks, %d cycles (base %d)",
			highest.Threshold, highest.Checks, highest.Cycles, s.BaseCycles)
	}
}

func TestThresholdSweepRendering(t *testing.T) {
	s, err := RunThresholdSweepCtx(context.Background(), "mixprob", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	PrintThresholdSweep(&b, s)
	out := b.String()
	for _, want := range []string{"mixprob", "θ", "speedup", "miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep lacks %q:\n%s", want, out)
		}
	}
	data, err := MarshalThresholdSweeps([]ThresholdSweep{s})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload": "mixprob"`, `"threshold": 1,`, `"missRatio"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON artifact lacks %q", want)
		}
	}
}
