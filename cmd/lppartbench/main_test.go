package main

import (
	"testing"
	"time"
)

func TestQuantileMsNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", ms(7), 0.99, 7},
		{"median of even count is the lower middle", ms(1, 2, 3, 4), 0.50, 2},
		{"median of odd count", ms(1, 2, 3, 4, 5), 0.50, 3},
		{"p90 of ten", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.90, 9},
		{"p99 of ten is the max", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 10},
		{"exact rank does not round up", ms(hundred...), 0.07, 7},
		{"p50 of hundred", ms(hundred...), 0.50, 50},
		{"p99 of hundred", ms(hundred...), 0.99, 99},
		{"q=0 is the min", ms(3, 4, 5), 0, 3},
		{"q=1 is the max", ms(3, 4, 5), 1, 5},
	} {
		if got := quantileMs(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: quantileMs(q=%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
}
