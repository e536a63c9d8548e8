package main

import (
	"context"
	"fmt"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/milp"
	"lppart/internal/system"
)

// TestGenProgram checks the search workload's programs for seeds 1-20:
// each parses, passes system.Evaluate's co-simulation cross-check, and
// leaves at least 12 viable clusters in the dse pool, so the searches
// have a design space to search.
func TestGenProgram(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src := genProgram(seed)
			if src != genProgram(seed) {
				t.Fatal("generator is not a function of the seed")
			}
			prog, err := behav.Parse(fmt.Sprintf("gen%d", seed), src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := system.Evaluate(prog, system.Config{}); err != nil {
				t.Fatal(err)
			}
			ir, err := cdfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			cfg := dse.Config{Workers: 1, MaxHW: searchMaxHW}
			cfg.Sys.Part.MaxClusters = searchMaxClusters
			p, err := dse.Prepare(context.Background(), ir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			in, err := milp.BuildInstance(p.Delta, p.Bases[0], p.Geoms[0], searchMaxHW)
			if err != nil {
				t.Fatal(err)
			}
			viable := 0
			for _, c := range in.Clusters {
				if len(c.Options) > 0 {
					viable++
				}
			}
			if viable < 12 {
				t.Errorf("%d viable clusters in a pool of %d, want at least 12", viable, len(in.Clusters))
			}
		})
	}
}
