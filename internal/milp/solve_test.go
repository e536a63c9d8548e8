package milp

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// trapInstance is the hand-built case where greedy is provably
// suboptimal: cluster A has the single best pick, but encloses both B
// and C, whose disjoint combination beats it.
//
//	A: saves 45 of 100 µP energy units → single-pick OF 105/150 = 0.70
//	B, C: save 30 each                 → single-pick OF 120/150 = 0.80
//	B+C: saves 60                      → OF 90/150 = 0.60 (optimal)
//
// Greedy takes A (minimum single-pick OF), blocking B and C.
func trapInstance() *Instance {
	in := &Instance{
		App:  "trap",
		MuPE: 100, RestE: 50, IAcc: 0, E0: 150, T0: 1000,
		F: 1, HardwareWeight: 0, TimeWeight: 1, GEQBudget: 16000,
		MaxHW: 2,
		Clusters: []Cluster{
			{Region: 1, Label: "A", Options: []Option{{Set: "s", Saved: 45, OF: 0.70, GEQ: 100}}},
			{Region: 2, Label: "B", Parent: 1, Options: []Option{{Set: "s", Saved: 30, OF: 0.80, GEQ: 100}}},
			{Region: 3, Label: "C", Parent: 1, Options: []Option{{Set: "s", Saved: 30, OF: 0.80, GEQ: 100}}},
		},
	}
	return in
}

// TestGreedySuboptimalInstance: the solver must find the B+C optimum
// greedy provably misses, with a checking certificate, and brute force
// must agree.
func TestGreedySuboptimalInstance(t *testing.T) {
	in := trapInstance()
	gOF, gj, _ := in.Greedy()
	if gj != 0 {
		t.Fatalf("greedy picked cluster %d, want A (0)", gj)
	}
	opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Picks) != 2 || opt.Picks[0].Label != "B" || opt.Picks[1].Label != "C" {
		t.Fatalf("solver picks %+v, want B+C", opt.Picks)
	}
	if want := in.objective(in.replay([]pick{{1, 0}, {2, 0}})); opt.OF != want {
		t.Fatalf("solver OF %v, want %v", opt.OF, want)
	}
	if opt.OF >= gOF {
		t.Fatalf("solver OF %v not strictly better than greedy %v", opt.OF, gOF)
	}
	ref, err := BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OF != opt.OF || ref.GEQ != opt.GEQ {
		t.Fatalf("brute force OF %v != solver %v", ref.OF, opt.OF)
	}
	if err := Check(in, opt.Cert); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// forgery is one tampered copy of a genuine certificate.
type forgery struct {
	what string
	cert Certificate
}

// forgeries tampers with a genuine certificate: a better claimed
// optimum, a worse one no configuration prices to, and (when the trail
// has an expanded node) a truncated trail.
func forgeries(c *Certificate) []forgery {
	lowered := *c
	lowered.OF = c.OF - 0.01 // claim an unachievable optimum
	raised := *c
	raised.OF = c.OF + 0.01 // claim worse than an actual config
	raised.Picks = nil      // the empty config prices to F, not OF+0.01
	out := []forgery{
		{"a forged (lowered) optimum claim", lowered},
		{"a forged (raised) optimum claim", raised},
	}
	if len(c.Expanded) > 0 {
		truncated := *c
		truncated.Expanded = c.Expanded[:len(c.Expanded)-1]
		out = append(out, forgery{"a truncated trail", truncated})
	}
	return out
}

// TestCheckRejectsForgery: a tampered certificate — better claimed
// optimum, weakened bound, or truncated trail — must fail to verify.
func TestCheckRejectsForgery(t *testing.T) {
	in := trapInstance()
	opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(in, opt.Cert); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	for _, fg := range forgeries(opt.Cert) {
		if Check(in, &fg.cert) == nil {
			t.Fatalf("Check accepted %s", fg.what)
		}
	}
	if Check(in, nil) == nil {
		t.Fatal("Check accepted a nil certificate")
	}
}

// TestBoundAdmissibleOnTrap: the relaxation at the root must not exceed
// the true optimum.
func TestBoundAdmissibleOnTrap(t *testing.T) {
	in := trapInstance()
	r := newRelaxation(in)
	b := r.bound(frame{}, 0, 0)
	opt, err := BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	if b > opt.OF {
		t.Fatalf("root bound %v exceeds the optimum %v", b, opt.OF)
	}
}

// solveCert solves in with a certificate.
func solveCert(t testing.TB, in *Instance) *Optimum {
	t.Helper()
	opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestCertificateLayout: the materialized trail keeps the wire shape of
// one slice per node. Each node's picks are capacity-limited, so an
// append cannot overwrite the next node's picks in the shared arena, the
// root's picks are an empty list, and an unrecorded list stays nil and
// marshals to null.
func TestCertificateLayout(t *testing.T) {
	opt := solveCert(t, denseInstance(12))
	for _, list := range [][]CertNode{opt.Cert.Expanded, opt.Cert.Pruned} {
		for i, cn := range list {
			if cn.Picks == nil || cap(cn.Picks) != len(cn.Picks) {
				t.Fatalf("node %d: picks %v with capacity %d", i, cn.Picks, cap(cn.Picks))
			}
		}
	}
	if root := opt.Cert.Expanded[0]; len(root.Picks) != 0 || root.Next != 0 {
		t.Fatalf("first expanded node %+v, want the root", root)
	}
	empty := solveCert(t, &Instance{App: "empty", MuPE: 1, E0: 1, T0: 1, F: 1, GEQBudget: 1})
	b, err := json.Marshal(empty.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"expanded":null,"pruned":null`; !strings.Contains(string(b), want) {
		t.Fatalf("empty instance's certificate %s, want %s", b, want)
	}
}
