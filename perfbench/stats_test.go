package main

import (
	"math"
	"testing"

	"loki/internal/metrics"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0, 1}, {1, 100},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90, 10 beyond
		{99, 0.9, false},   // rank 90, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{200, 0.95, true},  // rank 190, 10 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{19, 0.5, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := tailQuantile(xs, c.p); ok != c.want {
			t.Errorf("tailQuantile(n=%d, p=%v) supported = %v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	hist := []int64{0, 10, 10, 0}
	for _, c := range []struct{ q, want float64 }{{0.5, 2}, {0.75, 3}, {1, 4}} {
		if got := histQuantile(hist, bounds, c.q); got != c.want {
			t.Errorf("histQuantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histQuantile([]int64{0, 0, 0, 5}, bounds, 0.5); got != 4 {
		t.Errorf("rank in the +Inf bucket = %v, want the last bound 4", got)
	}
	if got := histQuantile(make([]int64, 4), bounds, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

// TestHistQuantileMatchesCollector pins histQuantile to the quantiles the
// metrics collector reports from the same histogram.
func TestHistQuantileMatchesCollector(t *testing.T) {
	c := metrics.NewCollector(1, 1)
	for i := 0; i < 1000; i++ {
		c.Completed(1, false, 0.002+0.3*float64(i%97)/97, 1)
	}
	s := c.Summarize()
	for _, q := range []struct {
		q    float64
		want float64
	}{{0.5, s.LatencyP50}, {0.99, s.LatencyP99}} {
		if got := histQuantile(s.LatencyHistogram, metrics.LatencyBounds, q.q); math.Abs(got-q.want) > 1e-12 {
			t.Errorf("histQuantile(q=%v) = %v, collector reports %v", q.q, got, q.want)
		}
	}
}
