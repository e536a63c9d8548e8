package milp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/system"
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

func prepApp(t *testing.T, name string, cfg dse.Config) *dse.Prep {
	t.Helper()
	p, err := dse.Prepare(context.Background(), buildApp(t, name), cfg)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", name, err)
	}
	return p
}

// TestSolveMatchesBruteForce is the tentpole differential: on every app,
// with the pre-selection budget widened to 12 clusters, the
// branch-and-bound must match exhaustive enumeration THROUGH
// partition.Priced bit-exactly — objective, energy, cycles and GEQ — on
// every geometry, and its certificate must check.
func TestSolveMatchesBruteForce(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			var cfg dse.Config
			cfg.Sys.Part.MaxClusters = 12
			p := prepApp(t, a.Name, cfg)
			for gi := range p.Geoms {
				in, err := BuildInstance(p.Delta, p.Bases[gi], p.Geoms[gi], 3)
				if err != nil {
					t.Fatalf("BuildInstance(geom %d): %v", gi, err)
				}
				if len(in.Clusters) > 12 {
					t.Fatalf("geom %d: %d clusters, want <= 12", gi, len(in.Clusters))
				}
				in.App = a.Name
				opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
				if err != nil {
					t.Fatalf("SolveInstance(geom %d): %v", gi, err)
				}
				ref, err := BruteForce(in)
				if err != nil {
					t.Fatalf("BruteForce(geom %d): %v", gi, err)
				}
				if opt.OF != ref.OF {
					t.Fatalf("geom %d: solver OF %v != brute force %v", gi, opt.OF, ref.OF)
				}
				if opt.Energy != ref.Energy || opt.Cycles != ref.Cycles || opt.GEQ != ref.GEQ {
					t.Fatalf("geom %d: solver point (%v,%d,%d) != brute force (%v,%d,%d)",
						gi, opt.Energy, opt.Cycles, opt.GEQ, ref.Energy, ref.Cycles, ref.GEQ)
				}
				if !opt.Stats.Proven || opt.Stats.Bound != opt.OF {
					t.Fatalf("geom %d: solve not proven: %+v", gi, opt.Stats)
				}
				if opt.Stats.Nodes > ref.Stats.Nodes {
					t.Fatalf("geom %d: solver priced %d nodes, more than exhaustive %d",
						gi, opt.Stats.Nodes, ref.Stats.Nodes)
				}
				if err := Check(in, opt.Cert); err != nil {
					t.Fatalf("geom %d: certificate: %v", gi, err)
				}
			}
		})
	}
}

// TestGreedyMatchesPartition pins the Greedy() replay: on the anchor
// geometry the instance's one-round greedy pick — region, resource set
// and objective — must equal what the real Fig. 1 engine returns, priced
// by the same floats.
func TestGreedyMatchesPartition(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ir := buildApp(t, a.Name)
			ev, err := system.EvaluateIRCtx(context.Background(), ir, system.Config{})
			if err != nil {
				t.Fatalf("EvaluateIRCtx: %v", err)
			}
			p, err := dse.Prepare(context.Background(), ir, dse.Config{})
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			// DefaultGeometries()[0] is the anchor (reference) pair.
			in, err := BuildInstance(p.Delta, p.Bases[0], p.Geoms[0], 2)
			if err != nil {
				t.Fatalf("BuildInstance: %v", err)
			}
			of, j, oi := in.Greedy()
			if ev.Decision.Chosen == nil {
				if j != -1 {
					t.Fatalf("engine chose nothing, instance greedy chose cluster %d", j)
				}
				return
			}
			if j < 0 {
				t.Fatalf("engine chose %s, instance greedy chose nothing", ev.Decision.Chosen.Region.Label)
			}
			cl, o := &in.Clusters[j], &in.Clusters[j].Options[oi]
			if cl.Region != ev.Decision.Chosen.Region.ID {
				t.Fatalf("greedy region %d (%s) != engine %d (%s)",
					cl.Region, cl.Label, ev.Decision.Chosen.Region.ID, ev.Decision.Chosen.Region.Label)
			}
			if o.Set != ev.Decision.Chosen.RS.Name {
				t.Fatalf("greedy set %s != engine %s", o.Set, ev.Decision.Chosen.RS.Name)
			}
			if of != ev.Decision.Chosen.Eval.OF {
				t.Fatalf("greedy OF %v != engine %v", of, ev.Decision.Chosen.Eval.OF)
			}
		})
	}
}

// TestSolveDeterministicAcrossWorkers: the full per-geometry fan-out
// must render byte-identically at any worker count.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	p := prepApp(t, "engine", dse.Config{})
	r1, err := Solve(context.Background(), p, Config{Workers: 1, Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Solve(context.Background(), p, Config{Workers: 4, Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := json.Marshal(r4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b4) {
		t.Fatal("Solve result differs between 1 and 4 workers")
	}
}

// TestGeometryFanOutBindsOnce: the Pareto search and the exact solver
// fan their geometries out, but both price every grid before the
// fan-out, so the shared pair cache binds each pair exactly once.
func TestGeometryFanOutBindsOnce(t *testing.T) {
	p := prepApp(t, "MPG", dse.Config{})
	if _, err := dse.ExplorePrep(context.Background(), p, dse.Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), p, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	s := p.Delta.MemoStats()
	if s.Pairs == 0 || s.Binds != s.Pairs {
		t.Errorf("MemoStats = %+v, want Binds == Pairs > 0", s)
	}
	if s.Hits == 0 {
		t.Errorf("MemoStats = %+v, want hits from the later geometries and the solve", s)
	}
}

// TestExactNeverWorseThanGreedy: on every app and every geometry the
// proven optimum is <= the one-round greedy objective (the exact space
// contains every single pick and the empty configuration).
func TestExactNeverWorseThanGreedy(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			p := prepApp(t, a.Name, dse.Config{})
			res, err := Solve(context.Background(), p, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for gi, opt := range res.Optima {
				gOF, _, _ := opt.Inst.Greedy()
				if opt.OF > gOF {
					t.Fatalf("geom %d: exact OF %v worse than greedy %v", gi, opt.OF, gOF)
				}
			}
		})
	}
}

// TestExactOptimaDominatedByFrontier: each geometry's exact optimum
// triple must be weakly dominated by (typically: present on) the merged
// Pareto frontier — the two engines price the same space with the same
// floats, so a frontier that misses an optimum would be a search bug.
// The second input's pool holds 80 clusters, past what a 64-bit conflict
// mask indexes: every optimum there is proven and its certificate checks.
func TestExactOptimaDominatedByFrontier(t *testing.T) {
	var wide dse.Config
	wide.Sys.Part.MaxClusters = 80
	for _, tc := range []struct {
		ir       *cdfg.Program
		cfg      dse.Config
		clusters int
	}{
		{buildApp(t, "MPG"), dse.Config{}, 0},
		{buildKernels(t), wide, 80},
	} {
		p, err := dse.Prepare(context.Background(), tc.ir, tc.cfg)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.ir.Name, err)
		}
		res, err := Solve(context.Background(), p, Config{Workers: 1, Certificate: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.ir.Name, err)
		}
		f, err := dse.ExplorePrep(context.Background(), p, dse.Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.ir.Name, err)
		}
		for gi, opt := range res.Optima {
			if tc.clusters > 0 && len(opt.Inst.Clusters) != tc.clusters {
				t.Fatalf("%s geom %d: %d clusters, want %d", tc.ir.Name, gi, len(opt.Inst.Clusters), tc.clusters)
			}
			if !opt.Stats.Proven {
				t.Fatalf("%s geom %d: optimum not proven", tc.ir.Name, gi)
			}
			if err := Check(opt.Inst, opt.Cert); err != nil {
				t.Fatalf("%s geom %d: certificate: %v", tc.ir.Name, gi, err)
			}
			covered := false
			for i := range f.Points {
				q := &f.Points[i]
				if q.Energy <= opt.Energy && q.Cycles <= opt.Cycles && q.GEQ <= opt.GEQ {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("%s geom %d: exact optimum (%v,%d,%d) not dominated by any frontier point",
					tc.ir.Name, gi, opt.Energy, opt.Cycles, opt.GEQ)
			}
		}
	}
}
