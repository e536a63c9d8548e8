package milp

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// TrailNode is one recorded node of the branch-and-bound. A node is
// its subproblem: the expanded node it was branched from, named by
// Parent, that node's index in the trail (−1 at the root), plus the pick
// (J, OI) that created it ((−1, −1) at the root). Its suffix starts at
// J+1, so at 0 for the root. Value is the node's objective, or for a
// Pruned node its relaxation lower bound.
type TrailNode struct {
	Value  float64
	Parent int32
	J, OI  int32
	Pruned bool
}

// Certificate is a machine-checkable optimality proof: the claimed
// optimum plus the complete bound trail of the branch-and-bound, every
// expanded and pruned node in recording order. Check replays it against
// an Instance with no trust in the solver — every objective and bound is
// recomputed from the instance, and the branching rule is re-derived, so
// a forged or truncated trail fails.
//
// The proof obligation splits as: (a) the claimed picks are feasible and
// price to OF (achievability); (b) walking the branching tree from the
// root, every node is its own priced configuration with objective >= OF,
// and is either childless, expanded (all children covered recursively),
// or pruned with a recomputed relaxation bound >= OF that dominates its
// whole subtree. The relaxation's admissibility itself is the
// DESIGN.md §10 lemma, not re-proven per run.
//
// In JSON the trail is spelled out as two lists of CertNodes, expanded
// and pruned, each in recording order (MarshalJSON, UnmarshalJSON).
type Certificate struct {
	App   string
	MaxHW int
	OF    float64
	Picks [][2]int
	Nodes int64
	Trail []TrailNode
}

// CertNode is one trail node in a certificate's JSON form, identified by
// its whole subproblem: the picks made so far (ascending (cluster,
// option) pairs) plus the suffix start. Value is the node's objective
// (expanded) or its relaxation lower bound (pruned).
type CertNode struct {
	Picks [][2]int `json:"picks"`
	Next  int      `json:"next"`
	Value float64  `json:"value"`
}

// wireCert is a certificate's JSON form.
type wireCert struct {
	App      string     `json:"app,omitempty"`
	MaxHW    int        `json:"max_hw"`
	OF       float64    `json:"of"`
	Picks    [][2]int   `json:"picks"`
	Nodes    int64      `json:"nodes"`
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

// certificate copies the workspace's trail into the returned Certificate
// at exact size (nil when empty).
func (ws *workspace) certificate(app string, maxPicks int, of float64, nodes int64) *Certificate {
	c := &Certificate{App: app, MaxHW: maxPicks, OF: of, Picks: certPicks(ws.best), Nodes: nodes} //lint:alloc the returned certificate
	if len(ws.trail) > 0 {
		c.Trail = make([]TrailNode, len(ws.trail)) //lint:alloc the returned trail, sized exactly
		copy(c.Trail, ws.trail)
	}
	return c
}

// MarshalJSON renders the JSON form: the expanded and the pruned nodes
// in two lists, each in recording order and null when empty, every node
// with its full pick sequence read off its parent chain.
func (c Certificate) MarshalJSON() ([]byte, error) {
	w, err := c.wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// wire spells the trail out as CertNodes. Their pick lists are
// capacity-limited windows of one arena.
func (c *Certificate) wire() (*wireCert, error) {
	w := &wireCert{App: c.App, MaxHW: c.MaxHW, OF: c.OF, Picks: c.Picks, Nodes: c.Nodes}
	var ne, total int
	for i := range c.Trail {
		d, err := c.depth(i)
		if err != nil {
			return nil, err
		}
		total += d
		if !c.Trail[i].Pruned {
			ne++
		}
	}
	if ne > 0 {
		w.Expanded = make([]CertNode, 0, ne)
	}
	if np := len(c.Trail) - ne; np > 0 {
		w.Pruned = make([]CertNode, 0, np)
	}
	// Non-nil even when empty: a root's picks marshal to [].
	arena := make([][2]int, total)
	for i := range c.Trail {
		t := &c.Trail[i]
		d, _ := c.depth(i)
		p := arena[:d:d]
		arena = arena[d:]
		for k, u := d-1, t; k >= 0; k, u = k-1, &c.Trail[u.Parent] {
			p[k] = [2]int{int(u.J), int(u.OI)}
		}
		cn := CertNode{Picks: p, Next: int(t.J) + 1, Value: t.Value}
		if t.Pruned {
			w.Pruned = append(w.Pruned, cn)
		} else {
			w.Expanded = append(w.Expanded, cn)
		}
	}
	return w, nil
}

// depth counts the picks of Trail[i]: the parent links from it up to
// the root, the node whose Parent is −1. A link out of range or a chain
// longer than the trail, which only a cycle makes, is an error.
func (c *Certificate) depth(i int) (int, error) {
	d := 0
	for p := c.Trail[i].Parent; p != -1; p = c.Trail[p].Parent {
		if p < 0 || int(p) >= len(c.Trail) || d == len(c.Trail) {
			return 0, fmt.Errorf("milp: certificate trail node %d has a malformed parent chain", i)
		}
		d++
	}
	return d, nil
}

// UnmarshalJSON decodes the JSON form, the certificate's untrusted
// boundary. Each node's parent resolves to the last expanded node of its
// prefix, the entry a replay reaches that prefix by, since the last
// entry of a key wins. A node the branching walk can never look up is
// dropped: one whose next is not its last pick's cluster + 1 (0 at the
// root), one with a pick outside int32, and one with no expanded prefix.
// The trail holds the kept expanded nodes, then the kept pruned ones,
// each list in its JSON order.
func (c *Certificate) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w wireCert
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ne, total := len(w.Expanded), len(w.Expanded)+len(w.Pruned)
	if total > maxTrail {
		return fmt.Errorf("milp: certificate trail of %d nodes exceeds %d", total, maxTrail)
	}
	// keys[i] is node i's key with its parent as a JSON index (expanded
	// nodes first, then pruned). Expanded nodes resolve in depth order,
	// so each one's prefixes are resolved before it; nodes of one key
	// have one depth, and the stable sort keeps their order, so last
	// keeps the last of each.
	order := make([]int, ne)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(len(w.Expanded[a].Picks), len(w.Expanded[b].Picks))
	})
	last := make(map[trailKey]int32, ne)
	keys := make([]trailKey, total)
	kept := make([]bool, total)
	for _, i := range order {
		if keys[i], kept[i] = resolve(last, &w.Expanded[i]); kept[i] {
			last[keys[i]] = int32(i)
		}
	}
	for i := range w.Pruned {
		keys[ne+i], kept[ne+i] = resolve(last, &w.Pruned[i])
	}
	// A kept expanded node's trail index is its rank among the kept.
	at := make([]int32, ne)
	n := 0
	for i, ok := range kept {
		if ok {
			if i < ne {
				at[i] = int32(n)
			}
			n++
		}
	}
	*c = Certificate{App: w.App, MaxHW: w.MaxHW, OF: w.OF, Picks: w.Picks, Nodes: w.Nodes}
	if n > 0 {
		c.Trail = make([]TrailNode, 0, n)
	}
	for i, k := range keys {
		if !kept[i] {
			continue
		}
		t := TrailNode{Parent: -1, J: k.j, OI: k.oi, Pruned: i >= ne}
		if k.parent >= 0 {
			t.Parent = at[k.parent]
		}
		if t.Pruned {
			t.Value = w.Pruned[i-ne].Value
		} else {
			t.Value = w.Expanded[i].Value
		}
		c.Trail = append(c.Trail, t)
	}
	return nil
}

// trailKey names a trail node by its parent and last pick.
type trailKey struct{ parent, j, oi int32 }

// rootKey is the root's key.
var rootKey = trailKey{-1, -1, -1}

// resolve returns cn's key, its parent named by the JSON index last maps
// its prefix's key to, and whether the key is one the branching walk
// can look up: every prefix resolved and expanded, every pick within
// int32, and Next the suffix start the last pick implies.
func resolve(last map[trailKey]int32, cn *CertNode) (trailKey, bool) {
	k := rootKey
	for _, p := range cn.Picks {
		e, ok := last[k]
		if !ok || p[0] != int(int32(p[0])) || p[1] != int(int32(p[1])) {
			return k, false
		}
		k = trailKey{e, int32(p[0]), int32(p[1])}
	}
	return k, cn.Next == int(k.j)+1
}

// maxTrail bounds the trail length the int32 cover index can address.
const maxTrail = 1 << 29

// coverIndex is Check's replay index over a certificate's trail: an
// open-addressed table of entry ids keyed by a node's (parent, last
// pick, kind), fixed-width whatever the node's depth, so a lookup hashes
// and compares three integers and a flag. Entry id i+1 names Trail[i];
// 0 is an empty slot. The last entry of a key wins, as a map assignment
// would.
type coverIndex struct {
	slots []int32
	shift uint // 64 − log2(len(slots)): the hash's top bits pick the slot
	trail []TrailNode
}

// keyHash mixes a node's key with splitmix64's finalizer, so every key
// bit reaches the top bits that pick the slot.
func keyHash(parent, j, oi int32, pruned bool) uint64 {
	h := uint64(uint32(oi)) << 1
	if pruned {
		h |= 1
	}
	h = h*0x9e3779b97f4a7c15 ^ (uint64(uint32(parent))<<32 | uint64(uint32(j)))
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// newCoverIndex indexes every node of trail.
func newCoverIndex(trail []TrailNode) coverIndex {
	shift := uint(64)
	for size := 1; size < 2*len(trail)+1; size <<= 1 {
		shift--
	}
	ix := coverIndex{slots: make([]int32, 1<<(64-shift)), shift: shift, trail: trail} //lint:alloc one table per replay
	for i := range trail {
		t := &trail[i]
		*ix.probe(t.Parent, t.J, t.OI, t.Pruned) = int32(i + 1)
	}
	return ix
}

// probe returns the slot holding the entry of this key, or the empty
// slot where it would go.
func (ix *coverIndex) probe(parent, j, oi int32, pruned bool) *int32 {
	mask := uint64(len(ix.slots) - 1)
	for s := keyHash(parent, j, oi, pruned) >> ix.shift; ; s = (s + 1) & mask {
		e := &ix.slots[s]
		if *e == 0 {
			return e
		}
		if t := &ix.trail[*e-1]; t.Parent == parent && t.J == j && t.OI == oi && t.Pruned == pruned {
			return e
		}
	}
}

// lookup returns the trail index of the node branched from the trail
// node parent by pick (j, oi), of the given kind, or −1.
func (ix *coverIndex) lookup(parent int32, j, oi int, pruned bool) int32 {
	return *ix.probe(parent, int32(j), int32(oi), pruned) - 1
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
	if len(cert.Trail) > maxTrail {
		return fmt.Errorf("milp: certificate trail of %d nodes exceeds %d", len(cert.Trail), maxTrail)
	}
	ix := newCoverIndex(cert.Trail)
	r := newRelaxation(in)
	n := len(in.Clusters)
	// walk recurses over one pick buffer: a child appends in place at
	// its parent's length, which stays below the buffer's capacity of
	// maxPicks because only nodes under the budget have children. parent
	// is the trail index of the expanded node the last pick branched
	// from, −1 at the root.
	var walk func(picks [][2]int, f frame, parent int32) error
	walk = func(picks [][2]int, f frame, parent int32) error {
		j, oi := -1, -1
		if d := len(picks); d > 0 {
			j, oi = picks[d-1][0], picks[d-1][1]
		}
		next := j + 1
		of := in.objective(f)
		if of < cert.OF {
			return fmt.Errorf("milp: configuration %s beats the claimed optimum (%v < %v)",
				appendKey(nil, picks, next), of, cert.OF)
		}
		if len(picks) >= maxPicks || next >= n {
			return nil // childless: its own configuration was just checked
		}
		if e := ix.lookup(parent, j, oi, true); e >= 0 {
			b := cert.Trail[e].Value
			if rb := r.bound(f, next, len(picks)); rb != b {
				return fmt.Errorf("milp: node %s records bound %v, recomputed %v", appendKey(nil, picks, next), b, rb)
			}
			if b < cert.OF {
				return fmt.Errorf("milp: node %s pruned with bound %v below the optimum %v", appendKey(nil, picks, next), b, cert.OF)
			}
			return nil // the bound dominates the whole subtree
		}
		e := ix.lookup(parent, j, oi, false)
		if e < 0 {
			return fmt.Errorf("milp: node %s neither expanded nor pruned", appendKey(nil, picks, next))
		}
		if v := cert.Trail[e].Value; of != v {
			return fmt.Errorf("milp: node %s records objective %v, recomputed %v", appendKey(nil, picks, next), v, of)
		}
	clusters:
		for c := next; c < n; c++ {
			for _, p := range picks {
				if in.overlaps(p[0], c) {
					continue clusters
				}
			}
			for o := range in.Clusters[c].Options {
				if err := walk(append(picks, [2]int{c, o}), in.add(f, c, o), e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(make([][2]int, 0, maxPicks), frame{}, -1)
}
