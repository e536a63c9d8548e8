package milp

import (
	"context"
	"os"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
)

// buildKernels builds testdata/kernels40.behav, a generated program whose
// 80 nested loop clusters fill a pool past what a 64-bit mask indexes.
func buildKernels(t *testing.T) *cdfg.Program {
	t.Helper()
	src, err := os.ReadFile("testdata/kernels40.behav")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := (&apps.App{Name: "kernels40", Source: string(src)}).Build()
	if err != nil {
		t.Fatalf("Build(kernels40): %v", err)
	}
	return ir
}

// TestPoolForestMatchesRegionOverlaps: on the six apps and the
// 80-cluster program, the grid's pool forest is a well-formed instance
// forest whose ancestry answers cdfg.Region.Overlaps on every pool pair.
func TestPoolForestMatchesRegionOverlaps(t *testing.T) {
	irs := []*cdfg.Program{buildKernels(t)}
	for _, a := range apps.All() {
		irs = append(irs, buildApp(t, a.Name))
	}
	for _, ir := range irs {
		var cfg dse.Config
		cfg.Sys.Part.MaxClusters = 80
		cfg.Geometries = dse.DefaultGeometries()[:1]
		p, err := dse.Prepare(context.Background(), ir, cfg)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", ir.Name, err)
		}
		g, err := dse.NewGrid(p.Delta, p.Bases[0])
		if err != nil {
			t.Fatalf("NewGrid(%s): %v", ir.Name, err)
		}
		in := &Instance{Clusters: make([]Cluster, len(g.Pool))}
		nested := 0
		for j := range g.Pool {
			in.Clusters[j].Parent = g.Parent[j]
			if g.Parent[j] != 0 {
				nested++
			}
		}
		if err := in.forest(); err != nil {
			t.Fatalf("%s: %v", ir.Name, err)
		}
		for a, ca := range g.Pool {
			for b, cb := range g.Pool {
				if got, want := in.overlaps(a, b), ca.Region.Overlaps(cb.Region); got != want {
					t.Fatalf("%s: pool %d (%s) vs %d (%s): forest says %v, regions %v",
						ir.Name, a, ca.Region.Label, b, cb.Region.Label, got, want)
				}
			}
		}
		t.Logf("%s: %d pool clusters, %d nested", ir.Name, len(g.Pool), nested)
		if ir.Name == "kernels40" && (len(g.Pool) != 80 || nested != 40) {
			t.Fatalf("kernels40: %d pool clusters with %d nested, want 80 with 40", len(g.Pool), nested)
		}
	}
}

// TestMalformedParentLinks: parent links that leave the cluster range or
// form a cycle make SolveInstance, Check and BruteForce fail instead of
// looping or panicking.
func TestMalformedParentLinks(t *testing.T) {
	cert := solveCert(t, trapInstance()).Cert
	for _, tc := range []struct {
		name    string
		parents [3]int
	}{
		{"2-cycle", [3]int{0, 3, 2}},
		{"self-loop", [3]int{1, 0, 0}},
		{"past the last cluster", [3]int{0, 4, 1}},
		{"negative", [3]int{0, 1, -1}},
	} {
		in := trapInstance()
		for j, p := range tc.parents {
			in.Clusters[j].Parent = p
		}
		if _, err := SolveInstance(context.Background(), in, Config{Certificate: true}); err == nil {
			t.Errorf("%s: SolveInstance accepted the instance", tc.name)
		}
		if err := Check(in, cert); err == nil {
			t.Errorf("%s: Check accepted the instance", tc.name)
		}
		if _, err := BruteForce(in); err == nil {
			t.Errorf("%s: BruteForce accepted the instance", tc.name)
		}
	}
}
