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
// pooled workspace.
func TestSolveInstanceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	const maxAllocs = 5 // relaxation, its deltas and table; optimum, picks
	var nodes []int64
	for _, n := range []int{12, 24} {
		in := denseInstance(n)
		solve := func() *Optimum {
			opt, err := SolveInstance(context.Background(), in, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return opt
		}
		opt := solve() // warm the workspace pool
		if opt.Stats.Nodes < 1000 {
			t.Fatalf("n=%d: search priced %d nodes, want >= 1000", n, opt.Stats.Nodes)
		}
		nodes = append(nodes, opt.Stats.Nodes)
		// AllocsPerRun pins GOMAXPROCS to 1, so every pool Get finds the
		// workspace the previous solve put back.
		if a := testing.AllocsPerRun(20, func() { solve() }); a > maxAllocs {
			t.Errorf("n=%d (%d nodes): warm SolveInstance allocates %v times, want <= %d",
				n, opt.Stats.Nodes, a, maxAllocs)
		}
	}
	if nodes[1] < 2*nodes[0] {
		t.Fatalf("node counts %v do not differ enough to show independence", nodes)
	}
}

// TestCheckZeroAlloc: certificate replay allocates one key string per
// recorded trail node plus a constant — the cover maps, the pick buffer
// and the relaxation — and nothing per replayed child.
func TestCheckZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const slack = 16
	in := denseInstance(16)
	opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	trail := len(opt.Cert.Expanded) + len(opt.Cert.Pruned)
	a := testing.AllocsPerRun(5, func() {
		if err := Check(in, opt.Cert); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d trail nodes, %d priced: Check allocates %v times", trail, opt.Stats.Nodes, a)
	if a > float64(trail+slack) {
		t.Errorf("Check allocates %v times, want <= %d trail nodes + %d", a, trail, slack)
	}
}
