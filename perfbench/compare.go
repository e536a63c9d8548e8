package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change run pairs a verdict rests on.
const minPairs = 10

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareLedgers compares a change's runs with its parent's, workload by
// workload: the i-th run of each ledger form a pair, so the runs should
// have been made alternating. It prints one verdict per (workload,
// metric) and reports whether none is worse or unresolved.
//
// better: the change wins at least 9/10 of the pairs and the medians
// differ by more than the parent's interquartile range. worse: the
// change's median is worse than the parent's by more than the metric's
// bound (for per-layer metrics, which have none, the mirror of better).
// unresolved: fewer than minPairs pairs, or a parent spread wider than
// the bound, unless every change run beats every parent run.
func compareLedgers(w io.Writer, benchPath, parentPath, changePath string) (bool, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readLedger(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return false, err
	}
	type def struct {
		name, better string
		bound        float64 // NaN: no bound
	}
	var e2e, layer []def
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Better, m.Bound})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, def{m.Name, m.Better, math.NaN()})
	}

	ok := true
	fmt.Fprintf(w, "%-16s %-26s %5s %14s %14s  %s\n", "workload", "metric", "pairs", "parent", "change", "verdict")
	for _, wl := range workloadOrder {
		for _, traced := range []bool{false, true} {
			pa, ch := parent[ledgerKey{wl, traced}], change[ledgerKey{wl, traced}]
			if len(pa) == 0 && len(ch) == 0 {
				continue
			}
			defs := e2e
			if traced {
				defs = layer
			}
			n := min(len(pa), len(ch))
			for _, d := range defs {
				a, c := make([]float64, n), make([]float64, n)
				for i := 0; i < n; i++ {
					a[i], c[i] = pa[i].Metrics[d.name].Value, ch[i].Metrics[d.name].Value
				}
				v := verdict(a, c, d.better == "lower", d.bound)
				if v == "worse" || v == "unresolved" {
					ok = false
				}
				fmt.Fprintf(w, "%-16s %-26s %5d %14.6g %14.6g  %s\n", wl, d.name, n, median(a), median(c), v)
			}
		}
	}
	return ok, nil
}

// verdict classifies paired runs of one metric (see compareLedgers).
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	n := len(parent)
	if n < minPairs {
		return "unresolved"
	}
	gain := func(a, c float64) float64 { // > 0: the change is better
		if lowerBetter {
			return a - c
		}
		return c - a
	}
	wins, losses := 0, 0
	for i := range parent {
		switch g := gain(parent[i], change[i]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	if 10*wins >= 9*n && math.Abs(mc-mp) > iqr && gain(mp, mc) > 0 {
		return "better"
	}
	if math.IsNaN(bound) {
		if 10*losses >= 9*n && math.Abs(mc-mp) > iqr {
			return "worse"
		}
		return "same"
	}
	if -gain(mp, mc) > bound*math.Abs(mp) {
		return "worse"
	}
	if iqr > bound*math.Abs(mp) && !allBetter(parent, change, gain) {
		return "unresolved"
	}
	return "same"
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, gain func(a, c float64) float64) bool {
	for _, a := range parent {
		for _, c := range change {
			if gain(a, c) <= 0 {
				return false
			}
		}
	}
	return true
}

type ledgerKey struct {
	workload string
	traced   bool
}

// readLedger groups a --out ledger's runs by workload and trace mode,
// in file order.
func readLedger(path string) (map[ledgerKey][]ledgerEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[ledgerKey][]ledgerEntry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		var e ledgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		k := ledgerKey{e.Workload, e.Trace}
		out[k] = append(out[k], e)
	}
	return out, sc.Err()
}
