package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (what Python's statistics.quantiles(xs, n=4) returns), so spreads
// computed here agree with the ones the acceptance driver computes. With
// fewer than two values both equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// supportedQuantile returns the q-quantile (nearest rank) of the ascending
// sample, lowered to the highest rank that still has ten samples beyond it —
// the choosing-metrics rule for tails — and to the median when not even that
// rank lies above the middle. A sample of 15 therefore reports its median as
// "p99"; 300 000 round trips report a true p99.
func supportedQuantile(sorted []uint32, q float64) uint32 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank > n-10 {
		rank = n - 10
	}
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return sorted[rank-1]
}

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
