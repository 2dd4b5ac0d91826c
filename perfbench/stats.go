package main

import (
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p95 over fewer than 200 samples rests on fewer than ten observations
// and moves with every outlier, so it is not reported as a p95.
const minTail = 10

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads printed here match the ones a reader recomputes from the
// per-run values. Fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based order statistics, with j clamped
		// to [1, n-1] before delta is taken, exactly as Python does (so
		// tiny samples extrapolate the way Python's do).
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the figure the benchmark's bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples strictly greater than the p-th percentile.
func beyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tailPercentile returns the highest whole percentile of xs that has at
// least minTail samples beyond it, and its value. ok is false when there
// are too few samples for even the median to qualify.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for pct := 99; pct >= 50; pct-- {
		if beyond(xs, float64(pct)) >= minTail {
			return float64(pct), percentile(xs, float64(pct)), true
		}
	}
	return 0, math.NaN(), false
}

// p95 returns the 95th percentile of xs and whether at least minTail
// samples lie beyond it.
func p95(xs []float64) (v float64, ok bool) {
	return percentile(xs, 95), beyond(xs, 95) >= minTail
}
