package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a percentile needs above its rank
// before it is reported; a rarer tail is reported as missing.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it. It also
// returns how many samples lie beyond that rank.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps q·n from rounding up past an exact rank (0.07·100
	// is 7.000000000000001 in float64).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1], n - r
}

// percentile is a quantile metric that carries its sample count and is
// marked missing when fewer than minBeyond samples lie beyond it.
func percentile(name string, samples []float64, q float64) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v, beyond := quantile(s, q)
	return metric{Name: name, Value: v, N: len(s), Missing: beyond < minBeyond}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads match the benchmark's acceptance
// rule.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	// Rank i·(n+1)/4, 1-based, interpolated between its neighbours; the
	// neighbour index is clamped to 1..n-1 exactly as Python clamps it.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
