package milp

import (
	"fmt"
	"strconv"
)

// CertNode is one node of the recorded bound trail, identified by its
// subproblem: the picks made so far (ascending (cluster, option) pairs)
// plus the suffix start. Value is the node's objective (expanded) or its
// relaxation lower bound (pruned).
type CertNode struct {
	Picks [][2]int `json:"picks"`
	Next  int      `json:"next"`
	Value float64  `json:"value"`
}

// Certificate is a machine-checkable optimality proof: the claimed
// optimum plus the complete bound trail of the branch-and-bound. Check
// replays it against an Instance with no trust in the solver — every
// objective and bound is recomputed from the instance, and the branching
// rule is re-derived, so a forged or truncated trail fails.
//
// The proof obligation splits as: (a) the claimed picks are feasible and
// price to OF (achievability); (b) walking the branching tree from the
// root, every node is its own priced configuration with objective >= OF,
// and is either childless, expanded (all children covered recursively),
// or pruned with a recomputed relaxation bound >= OF that dominates its
// whole subtree. The relaxation's admissibility itself is the
// DESIGN.md §10 lemma, not re-proven per run.
type Certificate struct {
	App   string   `json:"app,omitempty"`
	MaxHW int      `json:"max_hw"`
	OF    float64  `json:"of"`
	Picks [][2]int `json:"picks"`
	Nodes int64    `json:"nodes"`

	Expanded []CertNode `json:"expanded"`
	Pruned   []CertNode `json:"pruned"`
}

// certPicks converts the solver's compact picks to the wire form.
func certPicks(picks []pick) [][2]int {
	out := make([][2]int, len(picks)) //lint:alloc one wire node per recorded trail entry
	for i, p := range picks {
		out[i] = [2]int{p.j, p.oi}
	}
	return out
}

// appendKey appends the canonical "j.oi,…|next" identity of a subproblem
// for the cover maps.
func appendKey(b []byte, picks []pick, next int) []byte {
	for _, p := range picks {
		b = strconv.AppendInt(b, int64(p.j), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(p.oi), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	return strconv.AppendInt(b, int64(next), 10)
}

// prune and expand record trail nodes; both are no-ops on a nil
// receiver so the solver's hot loop stays branch-light.
func (c *Certificate) prune(ws *workspace, nd *node) {
	if c == nil {
		return
	}
	c.Pruned = append(c.Pruned, CertNode{Picks: certPicks(ws.picksOf(nd)), Next: nd.next, Value: nd.bound})
}

func (c *Certificate) expand(ws *workspace, nd *node, of float64) {
	if c == nil {
		return
	}
	c.Expanded = append(c.Expanded, CertNode{Picks: certPicks(ws.picksOf(nd)), Next: nd.next, Value: of})
}

// Check verifies a certificate against an instance. A nil error proves
// cert.OF is the exact minimum objective over every feasible
// configuration of in (given the admissibility of the relaxation bound,
// which is a property of the formula, not of this run).
func Check(in *Instance, cert *Certificate) error {
	if cert == nil {
		return fmt.Errorf("milp: no certificate")
	}
	maxPicks := in.maxPicks()
	if cert.MaxHW != maxPicks {
		return fmt.Errorf("milp: certificate pick budget %d, instance has %d", cert.MaxHW, maxPicks)
	}

	// (a) Achievability: the claimed picks exist, are feasible, and
	// price to exactly the claimed objective.
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

	// (b) Coverage: rebuild the cover maps, then replay the branching
	// rule from the root. Keys are built into one reused byte buffer;
	// lookups through m[string(kb)] do not allocate, so each recorded
	// node costs one key string.
	exp := make(map[string]float64, len(cert.Expanded))
	prn := make(map[string]float64, len(cert.Pruned))
	pks := make([]pick, 0, maxPicks)
	var kb []byte
	for _, cn := range cert.Expanded {
		pks = pks[:0]
		for _, p := range cn.Picks {
			pks = append(pks, pick{j: p[0], oi: p[1]})
		}
		kb = appendKey(kb[:0], pks, cn.Next)
		exp[string(kb)] = cn.Value
	}
	for _, cn := range cert.Pruned {
		pks = pks[:0]
		for _, p := range cn.Picks {
			pks = append(pks, pick{j: p[0], oi: p[1]})
		}
		kb = appendKey(kb[:0], pks, cn.Next)
		prn[string(kb)] = cn.Value
	}

	r := newRelaxation(in)
	n := len(in.Clusters)
	// walk recurses over one pick buffer: a child appends in place at
	// its parent's length, which stays below the buffer's capacity of
	// maxPicks because only nodes under the budget have children.
	var walk func(picks []pick, mask uint64, f frame, next int) error
	walk = func(picks []pick, mask uint64, f frame, next int) error {
		if of := in.objective(f); of < cert.OF {
			return fmt.Errorf("milp: configuration %s beats the claimed optimum (%v < %v)",
				appendKey(nil, picks, next), of, cert.OF)
		}
		if len(picks) >= maxPicks || next >= n {
			return nil // childless: its own configuration was just checked
		}
		kb = appendKey(kb[:0], picks, next)
		if b, ok := prn[string(kb)]; ok {
			if rb := r.bound(f, next, len(picks)); rb != b {
				return fmt.Errorf("milp: node %s records bound %v, recomputed %v", kb, b, rb)
			}
			if b < cert.OF {
				return fmt.Errorf("milp: node %s pruned with bound %v below the optimum %v", kb, b, cert.OF)
			}
			return nil // the bound dominates the whole subtree
		}
		v, ok := exp[string(kb)]
		if !ok {
			return fmt.Errorf("milp: node %s neither expanded nor pruned", kb)
		}
		if of := in.objective(f); of != v {
			return fmt.Errorf("milp: node %s records objective %v, recomputed %v", kb, v, of)
		}
		for j := next; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				continue
			}
			for oi := range in.Clusters[j].Options {
				if err := walk(append(picks, pick{j, oi}),
					mask|in.Clusters[j].Conflicts, in.add(f, j, oi), j+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(pks[:0], 0, frame{}, 0)
}
