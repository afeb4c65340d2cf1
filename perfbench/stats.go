package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile. A p90 over fewer than 100 samples would rest on fewer than
// ten values, and a tail that thin moves run to run with a single outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with an error, when fewer than minBeyond samples lie beyond the
// percentile's rank, so a thin tail is never reported as a number.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", p*100)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g over %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). Unlike percentile it does not gate on sample count: it
// summarises repeated set-ups and per-layer calls, not a latency tail.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// pairedRatio is Σexec / Σref over op-by-op pairs. Summing both sides
// before dividing weights every op by its own cost, and because each exec
// call sits next to its reference call in time, slow drift of the host
// scales numerator and denominator alike and cancels.
func pairedRatio(exec, ref []float64) (float64, error) {
	if len(exec) != len(ref) || len(exec) == 0 {
		return 0, fmt.Errorf("paired ratio needs equal non-empty sides, got %d and %d", len(exec), len(ref))
	}
	r := sum(ref)
	if r <= 0 {
		return 0, fmt.Errorf("paired ratio reference sums to %g", r)
	}
	return sum(exec) / r, nil
}
