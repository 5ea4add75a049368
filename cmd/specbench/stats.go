package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rank(n, p)
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// rank is the 1-based nearest rank of percentile p in n samples. The
// epsilon keeps products such as 0.9·10 from rounding up past an exact
// integer.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentiles are the candidates tailPercentile chooses from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples above its rank — the highest tail a sample of n can
// support — or 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// geomean is the geometric mean of positive values (NaN for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median of an unsorted sample (NaN for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
