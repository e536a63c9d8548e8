package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build's outputs")

// TestSmoke runs every workload for two ops at seed 1 and checks its
// outputs and digest against testdata/golden.json, so harness rot or
// output drift fails here before a timed run.
func TestSmoke(t *testing.T) {
	digests := make(map[string]string)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			res, err := workloads[name](context.Background(), options{workload: name, seed: 1, ops: 2})
			if err != nil {
				t.Fatal(err)
			}
			digests[name] = res.digest
			if *update {
				return
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			if res.attempted != 2 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d; want 2, 0", res.attempted, res.failed)
			}
			if want := golden.Seed1[name]; res.digest != want {
				t.Errorf("outputs_sha256 %s, golden %s", res.digest, want)
			}
		})
	}
	if !*update {
		return
	}
	w, err := setupTable1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := golden
	g.Table1, g.Seed1 = w.(*table1).rows, digests
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTracedSmoke runs a traced pass of every workload and requires
// every declared per-layer metric, in order.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced passes re-run every layer for attribution")
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 2, ops: 2, trace: true}
			res, err := workloads[name](context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			if len(res.metrics) != len(layerMetrics) {
				t.Fatalf("%d metrics, want %d", len(res.metrics), len(layerMetrics))
			}
			for k, m := range res.metrics {
				if m.Name != layerMetrics[k].name {
					t.Errorf("metric %d is %s, want %s", k, m.Name, layerMetrics[k].name)
				}
			}
			os.RemoveAll(buildDir)
		})
	}
}
