package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the epsilon keeps binary rounding of p*n/100 from bumping an exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile is the highest of p99.9, p99 and p90 that has at least
// ten samples beyond it — the tail a run of n samples can resolve — or 0
// when even p90 has fewer than ten.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is percentile 50 of a copy of xs, or 0 when xs is empty (a layer
// the workload does not exercise).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), xs...), 50)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
