package milp

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// checkOracle is the reference certificate replay Check's verdicts are
// compared with. It reads the JSON form: two cover maps keyed by the
// canonical "j.oi,…|next" string of each trail node, where a later entry
// of a key overwrites an earlier one and the pruned map is consulted
// first.
func checkOracle(in *Instance, cert *wireCert) error {
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

// wireOf returns c's JSON form.
func wireOf(t testing.TB, c *Certificate) *wireCert {
	t.Helper()
	w, err := c.wire()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// decode turns a JSON-form certificate into the one Check reads, through
// its JSON bytes and UnmarshalJSON.
func decode(t testing.TB, w *wireCert) (*Certificate, error) {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var c Certificate
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// sameVerdict fails t unless Check on the decoded certificate and the
// oracle on its JSON form give the same verdict, in the same words, and
// returns whether Check accepted.
func sameVerdict(t *testing.T, in *Instance, w *wireCert, what string) bool {
	t.Helper()
	c, err := decode(t, w)
	return agree(t, in, c, err, w, what)
}

// agree is sameVerdict on a certificate decoded already: c, or the
// error its decode returned, against the oracle on its JSON form w.
func agree(t *testing.T, in *Instance, c *Certificate, decodeErr error, w *wireCert, what string) bool {
	t.Helper()
	got := decodeErr
	if got == nil {
		got = Check(in, c)
	}
	if want := checkOracle(in, w); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Check says %v, the oracle %v", what, got, want)
	}
	return got == nil
}

// cloneCert deep-copies c's trail, so an edit cannot reach the original.
func cloneCert(c *wireCert) wireCert {
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
// trail nodes or claimed picks that are out of range or not ascending
// (never looked up, or infeasible), and the nodes the decoder drops or
// resolves specially: a next other than the implied one, a pick past
// int32, a child whose prefix is absent or listed after it, a child
// under a prefix both pruned and expanded, and a trail without its root. Some are accepted and some rejected; Check
// must agree with the oracle on each.
func trailEdits(c *wireCert) []forgery {
	var out []forgery
	add := func(what string, edit func(*wireCert)) {
		cp := cloneCert(c)
		edit(&cp)
		out = append(out, forgery{what, cp})
	}
	wrong := func(cn CertNode) CertNode {
		cn.Picks = append([][2]int{}, cn.Picks...)
		cn.Value++
		return cn
	}
	// child is a node one pick below cn, on the cluster after its last.
	child := func(cn CertNode) CertNode {
		return CertNode{Picks: append(append([][2]int{}, cn.Picks...), [2]int{cn.Next, 0}), Next: cn.Next + 1, Value: -1}
	}
	if len(c.Expanded) > 0 {
		last := len(c.Expanded) - 1
		add("an earlier duplicate expanded key with a wrong value", func(cp *wireCert) {
			cp.Expanded = append([]CertNode{wrong(cp.Expanded[last])}, cp.Expanded...)
		})
		add("a later duplicate expanded key with a wrong value", func(cp *wireCert) {
			cp.Expanded = append(cp.Expanded, wrong(cp.Expanded[0]))
		})
		add("an expanded key also pruned", func(cp *wireCert) {
			cp.Pruned = append(cp.Pruned, cp.Expanded[last])
		})
		add("an expanded node with a wrong next", func(cp *wireCert) {
			cn := wrong(cp.Expanded[last])
			cn.Next++
			cp.Expanded = append(cp.Expanded, cn)
		})
		add("the root's key with a wrong next", func(cp *wireCert) {
			cp.Expanded[0].Next = 1
		})
		add("no root", func(cp *wireCert) {
			cp.Expanded = cp.Expanded[1:]
		})
		add("the expanded list reversed, children before their prefixes", func(cp *wireCert) {
			slices.Reverse(cp.Expanded)
		})
		add("a pruned child of an expanded node with a wrong bound", func(cp *wireCert) {
			cp.Pruned = append(cp.Pruned, child(cp.Expanded[last]))
		})
	}
	if len(c.Pruned) > 0 {
		add("an earlier duplicate pruned key with a wrong value", func(cp *wireCert) {
			cp.Pruned = append([]CertNode{wrong(cp.Pruned[0])}, cp.Pruned...)
		})
		add("a later duplicate pruned key with a wrong value", func(cp *wireCert) {
			cp.Pruned = append(cp.Pruned, wrong(cp.Pruned[0]))
		})
		add("a pruned key also expanded with a wrong value", func(cp *wireCert) {
			cp.Expanded = append(cp.Expanded, wrong(cp.Pruned[0]))
		})
		add("a pruned node with a wrong next", func(cp *wireCert) {
			cn := wrong(cp.Pruned[0])
			cn.Next--
			cp.Pruned = append(cp.Pruned, cn)
		})
		add("a child whose prefix is absent", func(cp *wireCert) {
			cp.Pruned = append(cp.Pruned, child(cp.Pruned[0]))
			cp.Expanded = append(cp.Expanded, child(cp.Pruned[0]))
		})
		add("a child under a prefix both pruned and expanded", func(cp *wireCert) {
			p := cp.Pruned[len(cp.Pruned)-1]
			cp.Expanded = append(cp.Expanded, wrong(p), child(p))
			cp.Pruned = append(cp.Pruned, child(p))
		})
	}
	add("out-of-range trail picks", func(cp *wireCert) {
		cp.Expanded = append(cp.Expanded,
			CertNode{Picks: [][2]int{{1 << 20, 0}}, Next: 1},
			CertNode{Picks: [][2]int{{0, -1}}, Next: 1},
			CertNode{Picks: [][2]int{{-1, 0}}, Next: -7})
	})
	add("trail picks past int32 that wrap onto a node's key", func(cp *wireCert) {
		wrapped := CertNode{Picks: [][2]int{{1 << 32, 0}}, Next: 1, Value: -1}
		cp.Expanded = append(cp.Expanded, wrapped)
		cp.Pruned = append(cp.Pruned, wrapped)
	})
	add("non-ascending trail picks", func(cp *wireCert) {
		cp.Pruned = append(cp.Pruned, CertNode{Picks: [][2]int{{1, 0}, {0, 0}}, Next: 1, Value: cp.OF})
	})
	add("out-of-range claimed picks", func(cp *wireCert) {
		cp.Picks = [][2]int{{0, 1 << 20}}
	})
	add("non-ascending claimed picks", func(cp *wireCert) {
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
		w := wireOf(t, solveCert(t, in).Cert)
		if !sameVerdict(t, in, w, "genuine certificate") {
			t.Fatalf("instance %d: genuine certificate rejected", i)
		}
		for _, fg := range forgeries(w) {
			sameVerdict(t, in, &fg.cert, fmt.Sprintf("instance %d: %s", i, fg.what))
		}
		for _, fg := range trailEdits(w) {
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
