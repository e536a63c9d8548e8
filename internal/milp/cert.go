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
	out := make([][2]int, len(picks)) //lint:alloc the certificate's claimed picks
	for i, p := range picks {
		out[i] = [2]int{p.j, p.oi}
	}
	return out
}

// appendKey appends the canonical "j.oi,…|next" identity of a subproblem,
// the form Check's error messages name a node by.
func appendKey(b []byte, picks [][2]int, next int) []byte {
	for _, p := range picks {
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	return strconv.AppendInt(b, int64(next), 10)
}

// certificate materializes the workspace's compact trail as the wire
// Certificate with exactly sized allocations: one Expanded and one
// Pruned slice (nil when empty, as an unrecorded list marshals to null)
// and one picks arena that every CertNode.Picks is a capacity-limited
// window of, so appending to one node's picks cannot overwrite its
// neighbour's. Each window is rebuilt from the node's parent chain.
func (ws *workspace) certificate(app string, maxPicks int, of float64, nodes int64) *Certificate {
	var ne, np, total int
	for i := range ws.trail {
		if ws.trail[i].pruned {
			np++
		} else {
			ne++
		}
		total += int(ws.trail[i].depth)
	}
	c := &Certificate{App: app, MaxHW: maxPicks, OF: of, Picks: certPicks(ws.best), Nodes: nodes} //lint:alloc the returned certificate
	if ne > 0 {
		c.Expanded = make([]CertNode, 0, ne) //lint:alloc the returned trail, sized exactly
	}
	if np > 0 {
		c.Pruned = make([]CertNode, 0, np) //lint:alloc the returned trail, sized exactly
	}
	// Non-nil even when empty: a root-only trail's picks marshal to [].
	arena := make([][2]int, total) //lint:alloc one picks arena for the whole trail
	for i := range ws.trail {
		t := &ws.trail[i]
		d := int(t.depth)
		p := arena[:d:d]
		arena = arena[d:]
		if d > 0 {
			p[d-1] = [2]int{t.last.j, t.last.oi}
			for k, par := d-2, t.parent; k >= 0; k-- {
				nd := &ws.slab[par]
				p[k] = [2]int{nd.last.j, nd.last.oi}
				par = nd.parent
			}
		}
		cn := CertNode{Picks: p, Next: t.next, Value: t.value}
		if t.pruned {
			c.Pruned = append(c.Pruned, cn)
		} else {
			c.Expanded = append(c.Expanded, cn)
		}
	}
	return c
}

// Cover-index entry kinds, mixed into the hash. A pruned entry is
// looked up before an expanded one for the same subproblem.
const (
	kindExpanded uint64 = iota + 1
	kindPruned
)

// maxTrail bounds the trail length the int32 cover index can address.
const maxTrail = 1 << 29

// coverIndex is Check's replay index over a certificate's trail: an
// open-addressed table of entry ids keyed by an FNV-1a hash of
// (picks, next, kind), with collisions resolved by comparing the picks
// themselves. Entry id i+1 names Expanded[i], len(Expanded)+i+1 names
// Pruned[i]; 0 is an empty slot. Within a list the last entry of a key
// wins, as a map assignment would.
type coverIndex struct {
	slots []int32
	shift uint // 64 − log2(len(slots)): the hash's top bits pick the slot
	cert  *Certificate
}

const fnvPrime = 1099511628211

// keyHash is the FNV-1a hash of a subproblem, over 64-bit words.
func keyHash(picks [][2]int, next int) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range picks {
		h = (h ^ uint64(p[0])) * fnvPrime
		h = (h ^ uint64(p[1])) * fnvPrime
	}
	return (h ^ uint64(next)) * fnvPrime
}

// node returns the trail node entry id e names.
func (ix *coverIndex) node(e int32) *CertNode {
	if i := int(e) - 1; i < len(ix.cert.Expanded) {
		return &ix.cert.Expanded[i]
	}
	return &ix.cert.Pruned[int(e)-1-len(ix.cert.Expanded)]
}

// newCoverIndex indexes every trail node of cert.
func newCoverIndex(cert *Certificate) *coverIndex {
	total := len(cert.Expanded) + len(cert.Pruned)
	shift := uint(64)
	for size := 1; size < 2*total+1; size <<= 1 {
		shift--
	}
	ix := &coverIndex{slots: make([]int32, 1<<(64-shift)), shift: shift, cert: cert} //lint:alloc one table per replay
	for i := range cert.Expanded {
		ix.insert(int32(i+1), kindExpanded, &cert.Expanded[i])
	}
	for i := range cert.Pruned {
		ix.insert(int32(len(cert.Expanded)+i+1), kindPruned, &cert.Pruned[i])
	}
	return ix
}

// probe returns the slot holding the entry of this kind for (picks,
// next), given h = keyHash(picks, next), or the empty slot where it
// would go.
func (ix *coverIndex) probe(h, kind uint64, picks [][2]int, next int) *int32 {
	mask := uint64(len(ix.slots) - 1)
	for s := ((h ^ kind) * fnvPrime) >> ix.shift; ; s = (s + 1) & mask {
		e := &ix.slots[s]
		if *e == 0 {
			return e
		}
		pruned := int(*e) > len(ix.cert.Expanded)
		if cn := ix.node(*e); pruned == (kind == kindPruned) && cn.Next == next && samePicks(cn.Picks, picks) {
			return e
		}
	}
}

func samePicks(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insert stores entry id e, replacing an earlier entry of the same key.
func (ix *coverIndex) insert(e int32, kind uint64, cn *CertNode) {
	*ix.probe(keyHash(cn.Picks, cn.Next), kind, cn.Picks, cn.Next) = e
}

// lookup returns the value recorded for (picks, next) under kind, given
// h = keyHash(picks, next).
func (ix *coverIndex) lookup(h, kind uint64, picks [][2]int, next int) (float64, bool) {
	if e := *ix.probe(h, kind, picks, next); e != 0 {
		return ix.node(e).Value, true
	}
	return 0, false
}

// Check verifies a certificate against an instance. A nil error proves
// cert.OF is the exact minimum objective over every feasible
// configuration of in (given the admissibility of the relaxation bound,
// which is a property of the formula, not of this run).
func Check(in *Instance, cert *Certificate) error {
	if cert == nil {
		return fmt.Errorf("milp: no certificate")
	}
	if err := in.forest(); err != nil {
		return err
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

	// (b) Coverage: index the trail, then replay the branching rule from
	// the root.
	if len(cert.Expanded)+len(cert.Pruned) > maxTrail {
		return fmt.Errorf("milp: certificate trail of %d nodes exceeds %d",
			len(cert.Expanded)+len(cert.Pruned), maxTrail)
	}
	ix := newCoverIndex(cert)
	r := newRelaxation(in)
	n := len(in.Clusters)
	// walk recurses over one pick buffer: a child appends in place at
	// its parent's length, which stays below the buffer's capacity of
	// maxPicks because only nodes under the budget have children.
	var walk func(picks [][2]int, f frame, next int) error
	walk = func(picks [][2]int, f frame, next int) error {
		if of := in.objective(f); of < cert.OF {
			return fmt.Errorf("milp: configuration %s beats the claimed optimum (%v < %v)",
				appendKey(nil, picks, next), of, cert.OF)
		}
		if len(picks) >= maxPicks || next >= n {
			return nil // childless: its own configuration was just checked
		}
		h := keyHash(picks, next)
		if b, ok := ix.lookup(h, kindPruned, picks, next); ok {
			if rb := r.bound(f, next, len(picks)); rb != b {
				return fmt.Errorf("milp: node %s records bound %v, recomputed %v", appendKey(nil, picks, next), b, rb)
			}
			if b < cert.OF {
				return fmt.Errorf("milp: node %s pruned with bound %v below the optimum %v", appendKey(nil, picks, next), b, cert.OF)
			}
			return nil // the bound dominates the whole subtree
		}
		v, ok := ix.lookup(h, kindExpanded, picks, next)
		if !ok {
			return fmt.Errorf("milp: node %s neither expanded nor pruned", appendKey(nil, picks, next))
		}
		if of := in.objective(f); of != v {
			return fmt.Errorf("milp: node %s records objective %v, recomputed %v", appendKey(nil, picks, next), v, of)
		}
	clusters:
		for j := next; j < n; j++ {
			for _, p := range picks {
				if in.overlaps(p[0], j) {
					continue clusters
				}
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
