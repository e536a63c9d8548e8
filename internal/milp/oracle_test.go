package milp

import (
	"fmt"
	"testing"
)

// checkOracle is the reference certificate replay Check's verdicts are
// compared with: two cover maps keyed by the canonical "j.oi,…|next"
// string of each trail node, where a later entry of a key overwrites an
// earlier one and the pruned map is consulted first.
func checkOracle(in *Instance, cert *Certificate) error {
	if cert == nil {
		return fmt.Errorf("milp: no certificate")
	}
	maxPicks := in.maxPicks()
	if cert.MaxHW != maxPicks {
		return fmt.Errorf("milp: certificate pick budget %d, instance has %d", cert.MaxHW, maxPicks)
	}
	opt := make([]pick, len(cert.Picks))
	for i, p := range cert.Picks {
		opt[i] = pick{j: p[0], oi: p[1]}
	}
	if err := in.feasible(opt); err != nil {
		return fmt.Errorf("milp: claimed optimum infeasible: %w", err)
	}
	if of := in.objective(in.replay(opt)); of != cert.OF {
		return fmt.Errorf("milp: claimed optimum prices to %v, certificate says %v", of, cert.OF)
	}

	exp := make(map[string]float64, len(cert.Expanded))
	prn := make(map[string]float64, len(cert.Pruned))
	var kb []byte
	for _, cn := range cert.Expanded {
		kb = appendKey(kb[:0], cn.Picks, cn.Next)
		exp[string(kb)] = cn.Value
	}
	for _, cn := range cert.Pruned {
		kb = appendKey(kb[:0], cn.Picks, cn.Next)
		prn[string(kb)] = cn.Value
	}

	r := newRelaxation(in)
	n := len(in.Clusters)
	var walk func(picks [][2]int, f frame, next int) error
	walk = func(picks [][2]int, f frame, next int) error {
		if of := in.objective(f); of < cert.OF {
			return fmt.Errorf("milp: configuration %s beats the claimed optimum (%v < %v)",
				appendKey(nil, picks, next), of, cert.OF)
		}
		if len(picks) >= maxPicks || next >= n {
			return nil
		}
		kb = appendKey(kb[:0], picks, next)
		if b, ok := prn[string(kb)]; ok {
			if rb := r.bound(f, next, len(picks)); rb != b {
				return fmt.Errorf("milp: node %s records bound %v, recomputed %v", kb, b, rb)
			}
			if b < cert.OF {
				return fmt.Errorf("milp: node %s pruned with bound %v below the optimum %v", kb, b, cert.OF)
			}
			return nil
		}
		v, ok := exp[string(kb)]
		if !ok {
			return fmt.Errorf("milp: node %s neither expanded nor pruned", kb)
		}
		if of := in.objective(f); of != v {
			return fmt.Errorf("milp: node %s records objective %v, recomputed %v", kb, v, of)
		}
		for j := next; j < n; j++ {
			free := true
			for _, p := range picks {
				free = free && !in.overlaps(p[0], j)
			}
			if !free {
				continue
			}
			for oi := range in.Clusters[j].Options {
				if err := walk(append(picks, [2]int{j, oi}), in.add(f, j, oi), j+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(make([][2]int, 0, maxPicks), frame{}, 0)
}

// sameVerdict fails t unless Check and the oracle both accept cert or
// both reject it, and returns whether Check accepted.
func sameVerdict(t *testing.T, in *Instance, cert *Certificate, what string) bool {
	t.Helper()
	got, want := Check(in, cert), checkOracle(in, cert)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: Check says %v, the oracle %v", what, got, want)
	}
	return got == nil
}

// cloneCert deep-copies c's trail, so an edit cannot reach the original.
func cloneCert(c *Certificate) Certificate {
	cp := *c
	cp.Picks = append([][2]int(nil), c.Picks...)
	clone := func(nodes []CertNode) []CertNode {
		if nodes == nil {
			return nil
		}
		out := make([]CertNode, len(nodes))
		for i, cn := range nodes {
			out[i] = CertNode{Picks: append([][2]int{}, cn.Picks...), Next: cn.Next, Value: cn.Value}
		}
		return out
	}
	cp.Expanded, cp.Pruned = clone(c.Expanded), clone(c.Pruned)
	return cp
}

// trailEdits are the certificates whose verdict depends on how the cover
// index resolves keys: duplicate keys in one list (the last entry
// wins), one key in both lists (the pruned entry is consulted first),
// and trail nodes or claimed picks that are out of range or not
// ascending (never looked up, or infeasible). Some are accepted and some
// rejected; Check must agree with the oracle on each.
func trailEdits(c *Certificate) []forgery {
	var out []forgery
	add := func(what string, edit func(*Certificate)) {
		cp := cloneCert(c)
		edit(&cp)
		out = append(out, forgery{what, cp})
	}
	wrong := func(cn CertNode) CertNode {
		cn.Picks = append([][2]int{}, cn.Picks...)
		cn.Value++
		return cn
	}
	if len(c.Expanded) > 0 {
		last := len(c.Expanded) - 1
		add("an earlier duplicate expanded key with a wrong value", func(cp *Certificate) {
			cp.Expanded = append([]CertNode{wrong(cp.Expanded[last])}, cp.Expanded...)
		})
		add("a later duplicate expanded key with a wrong value", func(cp *Certificate) {
			cp.Expanded = append(cp.Expanded, wrong(cp.Expanded[0]))
		})
		add("an expanded key also pruned", func(cp *Certificate) {
			cp.Pruned = append(cp.Pruned, cp.Expanded[last])
		})
	}
	if len(c.Pruned) > 0 {
		add("an earlier duplicate pruned key with a wrong value", func(cp *Certificate) {
			cp.Pruned = append([]CertNode{wrong(cp.Pruned[0])}, cp.Pruned...)
		})
		add("a later duplicate pruned key with a wrong value", func(cp *Certificate) {
			cp.Pruned = append(cp.Pruned, wrong(cp.Pruned[0]))
		})
		add("a pruned key also expanded with a wrong value", func(cp *Certificate) {
			cp.Expanded = append(cp.Expanded, wrong(cp.Pruned[0]))
		})
	}
	add("out-of-range trail picks", func(cp *Certificate) {
		cp.Expanded = append(cp.Expanded,
			CertNode{Picks: [][2]int{{1 << 20, 0}}, Next: 1},
			CertNode{Picks: [][2]int{{0, -1}}, Next: 1},
			CertNode{Picks: [][2]int{{-1, 0}}, Next: -7})
	})
	add("non-ascending trail picks", func(cp *Certificate) {
		cp.Pruned = append(cp.Pruned, CertNode{Picks: [][2]int{{1, 0}, {0, 0}}, Next: 1, Value: cp.OF})
	})
	add("out-of-range claimed picks", func(cp *Certificate) {
		cp.Picks = [][2]int{{0, 1 << 20}}
	})
	add("non-ascending claimed picks", func(cp *Certificate) {
		cp.Picks = [][2]int{{1, 0}, {0, 0}}
	})
	return out
}

// TestCheckMatchesOracle: on the trap instance and random instances,
// Check gives the oracle's verdict on the genuine certificate, each
// forgery and each trail edit, and the trail edits include both verdicts.
func TestCheckMatchesOracle(t *testing.T) {
	instances := append(fuzzInstances(), denseInstance(10))
	var accepted, rejected int
	for i, in := range instances {
		opt := solveCert(t, in)
		if !sameVerdict(t, in, opt.Cert, "genuine certificate") {
			t.Fatalf("instance %d: genuine certificate rejected", i)
		}
		for _, fg := range forgeries(opt.Cert) {
			sameVerdict(t, in, &fg.cert, fmt.Sprintf("instance %d: %s", i, fg.what))
		}
		for _, fg := range trailEdits(opt.Cert) {
			if sameVerdict(t, in, &fg.cert, fmt.Sprintf("instance %d: %s", i, fg.what)) {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("trail edits: %d accepted, %d rejected; want both verdicts", accepted, rejected)
	}
}
