package partition_test

import (
	"context"
	"reflect"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/dse"
	"lppart/internal/partition"
)

// TestCandidatesMatchPerCallAcrossApps: on all six applications, against
// every default cache geometry's baseline, Candidates with its hoisted
// baseline-independent half returns exactly what the per-call
// computation does — every field of every candidate, and the pool in
// the same order. A narrow pre-selection exercises the rank cut too.
func TestCandidatesMatchPerCallAcrossApps(t *testing.T) {
	for _, maxClusters := range []int{0, 3} {
		for _, a := range apps.All() {
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			var cfg dse.Config
			cfg.Sys.Part.MaxClusters = maxClusters
			p, err := dse.Prepare(context.Background(), ir, cfg)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			if len(p.Bases) != len(dse.DefaultGeometries()) {
				t.Fatalf("%s: %d baselines, want one per default geometry", a.Name, len(p.Bases))
			}
			e := p.Delta
			for gi, base := range p.Bases {
				all, pool := e.Candidates(base)
				wantAll, wantPool := e.CandidatesPerCall(base)
				sameCandidates(t, a.Name, gi, "all", all, wantAll)
				sameCandidates(t, a.Name, gi, "pool", pool, wantPool)
				if maxClusters > 0 && len(all) > maxClusters && len(pool) != maxClusters {
					t.Errorf("%s geometry %d: pool of %d, want the cut at %d", a.Name, gi, len(pool), maxClusters)
				}
			}
		}
	}
}

func sameCandidates(t *testing.T, app string, gi int, what string, got, want []*partition.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s geometry %d: %d %s candidates, want %d", app, gi, len(got), what, len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Region != w.Region || g.SkipReason != w.SkipReason || g.Traffic != w.Traffic ||
			!reflect.DeepEqual(g.MuP, w.MuP) || g.Invocations != w.Invocations ||
			g.Score != w.Score || g.Preselected != w.Preselected || len(g.Evals) != len(w.Evals) {
			t.Fatalf("%s geometry %d: %s[%d] (%s) differs:\n got  %+v\n want %+v",
				app, gi, what, i, w.Region.Label, *g, *w)
		}
	}
}
