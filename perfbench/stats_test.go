package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	// Values from Python: statistics.quantiles(range(1, 11), n=4) gives
	// [2.75, 8.25], and statistics.quantiles([1, 2], n=4) gives
	// [0.75, 2.25] (the exclusive method extrapolates on tiny samples).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	// 200 samples: the p95 has exactly 10 beyond it, so it qualifies.
	xs := seq(200)
	if v, ok := p95(xs); !ok || v != 190 {
		t.Errorf("p95 of 200 = %v (ok %v), want 190 with 10 beyond", v, ok)
	}
	if p, v, ok := tailPercentile(xs); !ok || p != 95 || v != 190 {
		t.Errorf("tail of 200 = p%v %v (ok %v), want p95 190", p, v, ok)
	}
	// 100 samples: a p95 has only 5 beyond; the highest qualifying
	// percentile is the p90.
	xs = seq(100)
	if _, ok := p95(xs); ok {
		t.Error("p95 of 100 samples must not qualify")
	}
	if p, v, ok := tailPercentile(xs); !ok || p != 90 || v != 90 || beyond(xs, p) != 10 {
		t.Errorf("tail of 100 = p%v %v (ok %v), want p90 90", p, v, ok)
	}
	// 15 samples: no percentile from the median up leaves 10 beyond.
	if _, _, ok := tailPercentile(seq(15)); ok {
		t.Error("15 samples cannot give a tail percentile with 10 beyond")
	}
	// Ties at the percentile do not count as beyond it.
	ties := append(seq(10), 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	if n := beyond(ties, 50); n != 0 {
		t.Errorf("beyond the tied median = %d, want 0", n)
	}
}
