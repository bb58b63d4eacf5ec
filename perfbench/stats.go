package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and false when fewer than minTail samples lie beyond
// it, in which case the value is not trustworthy and must not be reported.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// msOf converts durations to sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}
