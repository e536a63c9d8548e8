package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.50, 50, 50}, // int(q·n) indexing returned 51
		{100, 0.90, 90, 10},
		{100, 0.99, 99, 1},
		{100, 0.07, 7, 93}, // q·n is 7.000000000000001 in float64
		{10, 0.50, 5, 5},
		{10, 0.90, 9, 1},
		{11, 0.50, 6, 5},
		{3, 0.99, 3, 0},
		{1, 0.50, 1, 0},
		{200, 0.95, 190, 10},
	} {
		got, beyond := quantile(seq(tc.n), tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("quantile(1..%d, %v) = %v, %d beyond; want %v, %d", tc.n, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestPercentileMissing(t *testing.T) {
	if m := percentile("p90", seq(100), 0.9); m.Missing || m.N != 100 || m.Value != 90 {
		t.Errorf("p90 of 100 samples: %+v", m)
	}
	if m := percentile("p90", seq(99), 0.9); !m.Missing {
		t.Errorf("p90 of 99 samples has 9 beyond it, want missing: %+v", m)
	}
	if m := percentile("p50", nil, 0.5); !m.Missing {
		t.Errorf("p50 of no samples: %+v", m)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the acceptance rule's definition.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(100), 25.25, 75.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestBenchmarkFileMatches requires BENCHMARK.json to declare exactly
// the metrics the program reports, with the same units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for k, d := range want {
			if g := got[k]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, k, g, d)
			}
		}
	}
	check("end_to_end", f.EndToEnd, e2eMetrics)
	check("per_layer", f.PerLayer, layerMetrics)
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		bound          float64
		want           string
	}{
		{"identical", base, base, 0.1, "same"},
		{"faster", base, shift(-10), 0.1, "better"},
		{"slower within bound", base, shift(5), 0.1, "same"},
		{"slower beyond bound", base, shift(20), 0.1, "worse"},
		{"too few pairs", base[:9], base[:9], 0.1, "unresolved"},
		{"spread wider than bound", base, base, 0.005, "unresolved"},
		{"per-layer slower", base, shift(5), math.NaN(), "worse"},
	} {
		if got := verdict(tc.parent, tc.change, true, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
