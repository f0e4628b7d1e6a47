package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for the
// percentile to count as measured rather than as the sample maximum.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-quantile in n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile reads the nearest-rank p-quantile of an ascending slice; zero
// when it is empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailQuantile is quantile plus whether at least minTail samples lie beyond
// the reported rank, the rule a reported tail percentile must meet.
func tailQuantile(sorted []float64, p float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	r := rank(len(sorted), p)
	return sorted[r-1], len(sorted)-r >= minTail
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice; zero when empty.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// histQuantile reads the q-quantile of a histogram over upper bounds
// (plus a final +Inf bucket), placing the rank linearly inside its bucket
// as Prometheus's histogram_quantile does; a rank in the +Inf bucket reads
// the last finite bound.
func histQuantile(hist []int64, bounds []float64, q float64) float64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum int64
	for i, n := range hist {
		if float64(cum+n) < target || n == 0 {
			cum += n
			continue
		}
		if i >= len(bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(target-float64(cum))/float64(n)
	}
	return bounds[len(bounds)-1]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio divides, reading 0/0 as zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
