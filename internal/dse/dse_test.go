package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/partition"
)

func buildApp(t *testing.T, name string) *cdfg.Program {
	t.Helper()
	a, err := apps.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return ir
}

func run(t *testing.T, ir *cdfg.Program, cfg Config) *Frontier {
	t.Helper()
	f, err := Explore(context.Background(), ir, cfg)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return f
}

func pointsJSON(t *testing.T, f *Frontier) []byte {
	t.Helper()
	b, err := json.Marshal(f.Points)
	if err != nil {
		t.Fatalf("marshal points: %v", err)
	}
	return b
}

// The frontier must be byte-identical across worker counts and across
// repeated runs — the repo-wide determinism contract, extended to the
// branch-and-bound search.
func TestFrontierDeterministic(t *testing.T) {
	ir := buildApp(t, "engine")
	var ref []byte
	var refStats Stats
	for ri, workers := range []int{1, 4, 4} {
		f := run(t, ir, Config{Workers: workers})
		b := pointsJSON(t, f)
		if ref == nil {
			ref, refStats = b, f.Stats
			if len(f.Points) == 0 {
				t.Fatal("empty frontier")
			}
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Errorf("run %d (workers=%d): frontier bytes differ\nref: %s\ngot: %s", ri, workers, ref, b)
		}
		// The search counters are serial per geometry, so they must not
		// depend on the fan-out either.
		if f.Stats.Configs != refStats.Configs || f.Stats.Pruned != refStats.Pruned ||
			f.Stats.PairEvals != refStats.PairEvals || f.Stats.MemoAdds != refStats.MemoAdds {
			t.Errorf("run %d (workers=%d): counters differ: %+v vs %+v", ri, workers, f.Stats, refStats)
		}
	}
}

// Every frontier point's decision trail must reproduce under the Fig. 1
// audit, and the frontier must satisfy the basic Pareto invariants.
func TestFrontierShapeAndAudit(t *testing.T) {
	ir := buildApp(t, "engine")
	f := run(t, ir, Config{Workers: 1})
	if err := f.Audit(partition.Config{}); err != nil {
		t.Fatalf("audit: %v", err)
	}
	allSW, hw := false, false
	for i, p := range f.Points {
		if p.ID != i {
			t.Errorf("point %d has ID %d", i, p.ID)
		}
		if len(p.Clusters) == 0 {
			allSW = true
			if p.GEQ != 0 {
				t.Errorf("all-software point %d has GEQ %d", i, p.GEQ)
			}
		} else {
			hw = true
		}
		if i > 0 && p.Energy < f.Points[i-1].Energy {
			t.Errorf("points not in ascending energy order at %d", i)
		}
		for j, q := range f.Points {
			if j != i && q.Energy <= p.Energy && q.Cycles <= p.Cycles && q.GEQ <= p.GEQ {
				t.Errorf("point %d is dominated by point %d", i, j)
			}
		}
	}
	if !allSW {
		t.Error("frontier lost every all-software point (GEQ=0 cannot be dominated by GEQ>0)")
	}
	if !hw {
		t.Error("no hardware point on the frontier — engine's Table 1 partition should appear")
	}
	// Explore with Verify set audits internally; it must not fail.
	cfg := Config{Workers: 1}
	cfg.Sys.Part.Verify = true
	run(t, ir, cfg)
}

// The branch-and-bound must be exact (identical frontier with pruning on
// and off) and effective: on MPG it has to cut at least 30% of the
// exhaustive (cluster subset × resource set) evaluations.
func TestBoundExactAndEffective(t *testing.T) {
	ir := buildApp(t, "MPG")
	ex := run(t, ir, Config{Workers: 1, DisableBound: true})
	bb := run(t, ir, Config{Workers: 1})
	if !bytes.Equal(pointsJSON(t, ex), pointsJSON(t, bb)) {
		t.Fatalf("pruning changed the frontier:\nexhaustive: %s\nbounded:    %s",
			pointsJSON(t, ex), pointsJSON(t, bb))
	}
	if ex.Stats.Pruned != 0 {
		t.Errorf("exhaustive run reports %d pruned subtrees", ex.Stats.Pruned)
	}
	if bb.Stats.Pruned == 0 {
		t.Error("bounded run pruned nothing")
	}
	if ex.Stats.Configs == 0 {
		t.Fatal("exhaustive run evaluated no configurations")
	}
	if max := ex.Stats.Configs * 7 / 10; bb.Stats.Configs > max {
		t.Errorf("bound pruned too little: %d of %d exhaustive evaluations (want <= %d, i.e. >= 30%% pruned)",
			bb.Stats.Configs, ex.Stats.Configs, max)
	}
	t.Logf("MPG: exhaustive=%d bounded=%d (%.0f%% pruned), subtrees cut=%d",
		ex.Stats.Configs, bb.Stats.Configs, 100*float64(ex.Stats.Configs-bb.Stats.Configs)/float64(ex.Stats.Configs), bb.Stats.Pruned)
}

// All geometries share one pair cache: on a multi-geometry, 2-cluster
// frontier run only the first geometry pays for each (cluster, resource
// set) schedule/binding; the rest must hit the cache.
func TestMemoSharedAcrossGeometries(t *testing.T) {
	ir := buildApp(t, "engine")
	cfg := Config{Workers: 1, MaxHW: 2}
	p, err := Prepare(context.Background(), ir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ExplorePrep(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Geometries < 2 {
		t.Fatalf("default grid has %d geometries, need >= 2", f.Stats.Geometries)
	}
	ms := p.Delta.MemoStats()
	if ms.Hits == 0 {
		t.Errorf("pair cache never hit across %d geometries: %+v", f.Stats.Geometries, ms)
	}
	if rate := ms.HitRate(); rate <= 0 {
		t.Errorf("pair cache hit rate = %v, want > 0", rate)
	}
	if ms.Binds != ms.Pairs {
		t.Errorf("one worker bound %d times for %d pairs", ms.Binds, ms.Pairs)
	}
	if f.Stats.MemoAdds >= f.Stats.PairEvals && f.Stats.PairEvals > 0 {
		t.Errorf("every pair evaluation scheduled from scratch (adds=%d, pair evals=%d)",
			f.Stats.MemoAdds, f.Stats.PairEvals)
	}
}

// Cancellation must surface the context error, not a partial frontier.
func TestExploreCancellation(t *testing.T) {
	ir := buildApp(t, "engine")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Explore(ctx, ir, Config{Workers: 2}); err == nil {
		t.Fatal("cancelled Explore returned no error")
	}
}
