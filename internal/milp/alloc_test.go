package milp

import (
	"context"
	"testing"
)

// denseInstance has n mutually compatible clusters, any two of which
// save more µP energy than the design spends. The energy clamp the
// relaxation drops then binds, so the bound stays loose and the search
// prices most of the lattice up to three picks.
func denseInstance(n int) *Instance {
	in := &Instance{
		App:  "dense",
		MuPE: 100, RestE: 60, E0: 160, T0: 1000,
		F: 1, HardwareWeight: 1, TimeWeight: 1, GEQBudget: 1000,
		MaxHW:    3,
		Clusters: make([]Cluster, n),
	}
	for j := range in.Clusters {
		in.Clusters[j] = Cluster{Region: j, Options: []Option{
			{Set: "a", Saved: 60, EASIC: float64(1 + j%3), GEQ: 10},
			{Set: "b", SetIndex: 1, Saved: 55, EASIC: 1, GEQ: 20 + j},
		}}
	}
	return in
}

// TestSolveInstanceZeroAlloc: a warm solve without a certificate
// allocates only the relaxation and the returned optimum — the same
// small count on instances whose searches differ several-fold in size.
// The nodes, the open-node heap and the pick sequences live in the
// recycled workspace.
func TestSolveInstanceZeroAlloc(t *testing.T) {
	// relaxation, its deltas and table; optimum, picks
	warmSolveAllocs(t, Config{}, 5, func(o *Optimum) int64 { return o.Stats.Nodes })
}

// TestSolveInstanceCertZeroAlloc: a warm solve with a certificate adds a
// constant number of allocations at any trail length. The compact trail
// lives in the recycled workspace, and the returned certificate is
// materialized once: the certificate, its claimed picks, one expanded
// list, one pruned list and one picks arena.
func TestSolveInstanceCertZeroAlloc(t *testing.T) {
	warmSolveAllocs(t, Config{Certificate: true}, 5+5, func(o *Optimum) int64 {
		return int64(len(o.Cert.Expanded) + len(o.Cert.Pruned))
	})
}

// warmSolveAllocs asserts a warm SolveInstance under cfg allocates at
// most maxAllocs times on two dense instances whose size (as measured)
// differs at least twofold.
func warmSolveAllocs(t *testing.T, cfg Config, maxAllocs float64, size func(*Optimum) int64) {
	var sizes []int64
	for _, n := range []int{12, 24} {
		in := denseInstance(n)
		solve := func() *Optimum {
			opt, err := SolveInstance(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return opt
		}
		opt := solve() // warm the recycled workspace
		if opt.Stats.Nodes < 1000 {
			t.Fatalf("n=%d: search priced %d nodes, want >= 1000", n, opt.Stats.Nodes)
		}
		sizes = append(sizes, size(opt))
		// Every solve finds the workspace the previous one put back, on
		// any P and under -race.
		if a := testing.AllocsPerRun(20, func() { solve() }); a > maxAllocs {
			t.Errorf("n=%d (size %d): warm SolveInstance allocates %v times, want <= %v",
				n, size(opt), a, maxAllocs)
		}
	}
	if sizes[1] < 2*sizes[0] {
		t.Fatalf("sizes %v do not differ enough to show independence", sizes)
	}
}

// TestCheckZeroAlloc: certificate replay allocates a constant and
// nothing per recorded trail node or replayed child, on trails that
// differ at least twofold.
func TestCheckZeroAlloc(t *testing.T) {
	// claimed picks; cover index and its table; relaxation, its deltas
	// and table; pick buffer
	const maxAllocs = 7
	var trails []int
	for _, n := range []int{12, 24} {
		in := denseInstance(n)
		opt := solveCert(t, in)
		trail := len(opt.Cert.Expanded) + len(opt.Cert.Pruned)
		trails = append(trails, trail)
		a := testing.AllocsPerRun(5, func() {
			if err := Check(in, opt.Cert); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %d trail nodes, %d priced: Check allocates %v times", n, trail, opt.Stats.Nodes, a)
		if a > maxAllocs {
			t.Errorf("n=%d: Check allocates %v times, want <= %d", n, a, maxAllocs)
		}
	}
	if trails[1] < 2*trails[0] {
		t.Fatalf("trail lengths %v do not differ enough to show independence", trails)
	}
}
