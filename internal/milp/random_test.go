package milp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomInstance draws a small instance from rng: up to 10 clusters of
// 1–3 options, a random forest of nested clusters and a pick budget of
// 1–4. Every value is a small integer, so frame sums are exact whatever
// the pick order, and distinct configurations often price to the same
// objective bits — the ties the lexicographic tie-break decides.
func randomInstance(rng *rand.Rand) *Instance {
	return drawInstance(rng, rng.Intn(11))
}

// drawInstance draws randomInstance's kind of instance with n clusters.
func drawInstance(rng *rand.Rand, n int) *Instance {
	in := &Instance{
		App:  "random",
		MuPE: 100, RestE: 60, E0: 160, T0: 1000,
		IAcc:           float64(rng.Intn(2)),
		F:              1,
		HardwareWeight: float64(rng.Intn(2)),
		TimeWeight:     float64(rng.Intn(2)),
		GEQBudget:      1000,
		MaxHW:          1 + rng.Intn(4),
		Clusters:       make([]Cluster, n),
	}
	for j := range in.Clusters {
		cl := &in.Clusters[j]
		cl.Region = j
		cl.Instrs = int64(10 * rng.Intn(3))
		cl.Options = make([]Option, 1+rng.Intn(3))
		for oi := range cl.Options {
			cl.Options[oi] = Option{
				Set:      "s",
				SetIndex: oi,
				Saved:    float64(10 * rng.Intn(5)),
				EASIC:    float64(5 * rng.Intn(3)),
				CycEx:    int64(100 * (rng.Intn(4) - 1)),
				GEQ:      100 * rng.Intn(3),
			}
		}
	}
	// The clusters join the forest in a random order, each at the top or
	// under an earlier one, so a parent's index may lie above or below
	// its child's: pool rank order is not tree order.
	order := rng.Perm(n)
	for k, j := range order {
		if k > 0 && rng.Intn(3) != 0 {
			in.Clusters[j].Parent = 1 + order[rng.Intn(k)]
		}
	}
	for j := range in.Clusters {
		for oi := range in.Clusters[j].Options {
			in.Clusters[j].Options[oi].OF = in.objective(in.add(frame{}, j, oi))
		}
	}
	return in
}

// optimaTied reports whether two or more configurations price to the
// instance's minimum objective, by plain enumeration.
func optimaTied(in *Instance) bool {
	best, count := math.Inf(1), 0
	var picks []pick
	var walk func(i int, f frame)
	walk = func(i int, f frame) {
		switch of := in.objective(f); {
		case of < best:
			best, count = of, 1
		case of == best:
			count++
		}
		if len(picks) == in.maxPicks() {
			return
		}
		for j := i; j < len(in.Clusters); j++ {
			if in.clashes(picks, j) {
				continue
			}
			for oi := range in.Clusters[j].Options {
				picks = append(picks, pick{j, oi})
				walk(j+1, in.add(f, j, oi))
				picks = picks[:len(picks)-1]
			}
		}
	}
	walk(0, frame{})
	return count > 1
}

// TestRandomInstancesMatchBruteForce is the seeded differential suite:
// on 2000 random instances the solver must equal brute-force
// enumeration bit for bit — objective, point and pick sequence — its
// certificate must check, each single mutation of the certificate must
// be rejected, and Check must give the map-keyed oracle's verdict on
// every certificate, trail edits included.
func TestRandomInstancesMatchBruteForce(t *testing.T) {
	const instances = 2000
	rng := rand.New(rand.NewSource(1))
	var ties, dropExp, dropPrn, lowered int
	for i := 0; i < instances; i++ {
		in := randomInstance(rng)
		opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		ref, err := BruteForce(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if math.Float64bits(opt.OF) != math.Float64bits(ref.OF) {
			t.Fatalf("instance %d: solver OF %v != brute force %v", i, opt.OF, ref.OF)
		}
		if opt.Energy != ref.Energy || opt.Cycles != ref.Cycles || opt.GEQ != ref.GEQ {
			t.Fatalf("instance %d: solver point (%v,%d,%d) != brute force (%v,%d,%d)",
				i, opt.Energy, opt.Cycles, opt.GEQ, ref.Energy, ref.Cycles, ref.GEQ)
		}
		if !reflect.DeepEqual(opt.Picks, ref.Picks) {
			t.Fatalf("instance %d: solver picks %+v != brute force %+v", i, opt.Picks, ref.Picks)
		}
		if optimaTied(in) {
			ties++
		}

		cert := opt.Cert
		if err := Check(in, cert); err != nil {
			t.Fatalf("instance %d: genuine certificate rejected: %v", i, err)
		}
		sameVerdict(t, in, cert, fmt.Sprintf("instance %d: genuine certificate", i))
		reject := func(what string, forged Certificate) {
			t.Helper()
			if sameVerdict(t, in, &forged, fmt.Sprintf("instance %d: %s", i, what)) {
				t.Fatalf("instance %d: Check accepted a certificate with %s", i, what)
			}
		}
		for _, fg := range trailEdits(cert) {
			sameVerdict(t, in, &fg.cert, fmt.Sprintf("instance %d: %s", i, fg.what))
		}
		if len(cert.Expanded) > 0 {
			forged := *cert
			forged.Expanded = without(cert.Expanded, rng.Intn(len(cert.Expanded)))
			reject("an expanded node dropped", forged)
			dropExp++
		}
		if len(cert.Pruned) > 0 {
			k := rng.Intn(len(cert.Pruned))
			forged := *cert
			forged.Pruned = without(cert.Pruned, k)
			reject("a pruned node dropped", forged)

			forged.Pruned = append([]CertNode(nil), cert.Pruned...)
			forged.Pruned[k].Value = math.Nextafter(forged.Pruned[k].Value, math.Inf(-1))
			reject("a pruned bound lowered", forged)
			dropPrn++
		}
		forged := *cert
		forged.OF = math.Nextafter(cert.OF, math.Inf(-1))
		reject("the optimum lowered", forged)
		lowered++
	}
	t.Logf("%d instances: %d with tied optima, mutations: %d expanded drops, %d pruned drops and lowerings, %d OF lowerings",
		instances, ties, dropExp, dropPrn, lowered)
	// The suite is only as strong as its coverage: the tie-break and both
	// trail mutations must each be exercised many times.
	if ties < instances/10 || dropExp < instances/2 || dropPrn < instances/10 {
		t.Fatalf("weak coverage: %d ties, %d expanded drops, %d pruned mutations", ties, dropExp, dropPrn)
	}
}

// without returns a copy of nodes minus the k-th.
func without(nodes []CertNode, k int) []CertNode {
	out := append([]CertNode(nil), nodes[:k]...)
	return append(out, nodes[k+1:]...)
}

// TestRandomForestPast64Clusters solves one random instance of 65–120
// nested clusters at a pick budget of 2–3, beyond what a 64-bit conflict
// mask could index: its certificate checks, the optimum is feasible and
// no worse than the one-round greedy pick. Brute force stays on the
// small instances.
func TestRandomForestPast64Clusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := drawInstance(rng, 65+rng.Intn(56))
	in.MaxHW = 2 + rng.Intn(2)
	opt := solveCert(t, in)
	if err := Check(in, opt.Cert); err != nil {
		t.Fatalf("%d clusters: certificate rejected: %v", len(in.Clusters), err)
	}
	picks := make([]pick, len(opt.Cert.Picks))
	for i, p := range opt.Cert.Picks {
		picks[i] = pick{p[0], p[1]}
	}
	if err := in.feasible(picks); err != nil {
		t.Fatalf("%d clusters: optimum infeasible: %v", len(in.Clusters), err)
	}
	if gOF, _, _ := in.Greedy(); opt.OF > gOF {
		t.Fatalf("%d clusters: exact OF %v worse than greedy %v", len(in.Clusters), opt.OF, gOF)
	}
	t.Logf("%d clusters, MaxHW %d: %d nodes, OF %v", len(in.Clusters), in.MaxHW, opt.Stats.Nodes, opt.OF)
}
