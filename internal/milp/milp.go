// Package milp is the exact-optimality oracle for the paper's
// partitioning objective: it provably minimizes OF over cluster subsets
// × resource sets for each explored cache geometry, where the Fig. 1
// loop is greedy and internal/dse prunes only toward Pareto fronts.
//
// The model is the 0-1 program the paper's Eq. 3 implies (following the
// assignment-formulation exemplars in PAPERS.md/SNIPPETS.md): one binary
// variable x_{j,s} per (cluster j, resource set s) pair, with
//
//	minimize  F·E(x)/E_0 + w_hw·GEQ(x)/budget + w_t·max(0, slowdown(x))
//	s.t.      Σ_s x_{j,s} <= 1             (one implementation per cluster)
//	          x_{j,s} + x_{j',s'} <= 1     (nested regions exclude)
//	          Σ x_{j,s} <= MaxHW           (Eq. 3's core budget)
//	          x_{j,s} = 0 unless the pick passes Fig. 1's acceptance
//	                    test (eligible, GEQ within budget, OF < F)
//
// Rather than shipping the nonseparable max(0,·) objective to an LP
// layer, the solver is a best-first branch-and-bound over the cluster
// lattice with a knapsack/cardinality-relaxation lower bound (bound.go)
// and a machine-checkable certificate of the bound trail (cert.go).
// Leaves are priced through the exact float expression tree of
// partition.Priced — the same accumulator splice internal/dse records —
// so the optimum is bit-comparable with both the greedy engine's OF and
// the frontier's points, and differentially testable against exhaustive
// enumeration through partition.Priced itself (brute.go).
//
// Everything is deterministic: per-geometry solves are serial, the
// geometry fan-out preserves input order, and heap ties break on node
// creation order — results are byte-identical at any worker count.
package milp

import (
	"fmt"

	"lppart/internal/cache"
	"lppart/internal/dse"
	"lppart/internal/partition"
)

// Option is one admissible hardware implementation of a cluster: a
// resource set that passed the Fig. 1 acceptance test against the
// instance's baseline, priced into the additive frame deltas the
// objective needs. The fields mirror partition.Priced.Add exactly.
type Option struct {
	Set      string  `json:"set"`
	SetIndex int     `json:"set_index"`
	Saved    float64 `json:"saved"`  // E_µP the pick removes
	EASIC    float64 `json:"easic"`  // estimated ASIC + transfer energy
	CycEx    int64   `json:"cyc_ex"` // EstCycles - T0, the cycle delta
	GEQ      int     `json:"geq"`
	OF       float64 `json:"of"` // the pick's own Fig. 1 objective value
}

// Cluster is one 0-1 decision: leave the region in software or move it
// to hardware on one of its Options.
type Cluster struct {
	Region int    `json:"region"` // cdfg region ID
	Label  string `json:"label"`
	Instrs int64  `json:"instrs"` // µP instructions the move removes
	// Parent is 1 + the index of the nearest enclosing cluster, 0 at the
	// top level (the dse grid's pool forest). Two clusters conflict —
	// picking both is infeasible — when one is the other's ancestor.
	Parent  int      `json:"parent"`
	Options []Option `json:"options"`
}

// Instance is one self-contained 0-1 partitioning problem: the scalar
// baseline of a single cache geometry plus the viable (cluster, option)
// grid. It carries everything needed to re-price any configuration —
// the certificate checker trusts nothing else.
type Instance struct {
	App  string          `json:"app,omitempty"`
	Geom [2]cache.Config `json:"geom"`

	// The baseline scalars, mirroring partition.Priced: µP energy, rest
	// (caches+memory+bus) energy, per-fetch i-cache energy, total
	// energy E_0 and cycles T_0 of the all-software design.
	MuPE  float64 `json:"mupe"`
	RestE float64 `json:"reste"`
	IAcc  float64 `json:"iacc"`
	E0    float64 `json:"e0"`
	T0    int64   `json:"t0"`

	// The objective weights (partition.Config, defaults resolved).
	F              float64 `json:"f"`
	HardwareWeight float64 `json:"hardware_weight"`
	TimeWeight     float64 `json:"time_weight"`
	GEQBudget      int     `json:"geq_budget"`

	// MaxHW bounds how many clusters may move to hardware (Eq. 3's N).
	// <= 0 means no bound beyond the cluster count.
	MaxHW int `json:"max_hw"`

	Clusters []Cluster `json:"clusters"`
}

// maxPicks resolves MaxHW against the cluster count.
func (in *Instance) maxPicks() int {
	n := len(in.Clusters)
	if in.MaxHW > 0 && in.MaxHW < n {
		return in.MaxHW
	}
	return n
}

// forest checks that the Parent links are in range and acyclic.
func (in *Instance) forest() error {
	n := len(in.Clusters)
	for j := range in.Clusters {
		for b, steps := j, 0; b >= 0; b, steps = in.Clusters[b].Parent-1, steps+1 {
			if p := in.Clusters[b].Parent; p < 0 || p > n || steps == n {
				return fmt.Errorf("milp: the parent links from cluster %d leave 0..%d or cycle", j, n) //lint:alloc error path
			}
		}
	}
	return nil
}

// overlaps reports whether clusters a and b conflict: one is the other
// or its ancestor along the Parent links, mirroring cdfg.Region.Overlaps.
func (in *Instance) overlaps(a, b int) bool {
	x, y := a, b
	for x >= 0 && x != b {
		x = in.Clusters[x].Parent - 1
	}
	for y >= 0 && y != a {
		y = in.Clusters[y].Parent - 1
	}
	return x == b || y == a
}

// clashes reports whether cluster j overlaps one of the picks.
func (in *Instance) clashes(picks []pick, j int) bool {
	for _, p := range picks {
		if in.overlaps(p.j, j) {
			return true
		}
	}
	return false
}

// frame is the additive accumulator of a configuration, identical field
// for field with partition.Priced's snapshot — add/point/objective
// replay its float expression tree so a leaf's objective is
// bit-comparable with the search engines it oracles.
type frame struct {
	saved, easic  float64
	instrs, cycEx int64
	geq           int
}

// add splices one pick into a frame, mirroring partition.Priced.Add.
//
//lint:hotpath the branch-and-bound child expansion
func (in *Instance) add(f frame, j, oi int) frame {
	o := &in.Clusters[j].Options[oi]
	f.saved += o.Saved
	f.easic += o.EASIC
	f.instrs += in.Clusters[j].Instrs
	f.cycEx += o.CycEx
	f.geq += o.GEQ
	return f
}

// point clamps a frame into the objective triple, mirroring
// partition.Priced.Point.
//
//lint:hotpath priced at every search-tree node
func (in *Instance) point(f frame) (energy float64, cycles int64, geq int) {
	mu := in.MuPE - f.saved
	if mu < 0 {
		mu = 0
	}
	rest := in.RestE - float64(f.instrs)*in.IAcc
	if rest < 0 {
		rest = 0
	}
	c := in.T0 + f.cycEx
	if c < 1 {
		c = 1
	}
	return mu + f.easic + rest, c, f.geq
}

// objective scalarizes a frame with the Fig. 1 line 13 expression, in
// the exact operation order of partition's price tail.
//
//lint:hotpath priced at every search-tree node
func (in *Instance) objective(f frame) float64 {
	e, c, g := in.point(f)
	slow := float64(c)/float64(in.T0) - 1
	if slow < 0 {
		slow = 0
	}
	return in.F*e/in.E0 + in.HardwareWeight*float64(g)/float64(in.GEQBudget) +
		in.TimeWeight*slow
}

// replay recomputes the frame of a pick sequence by the same
// ascending-index add chain the solver and internal/dse's DFS use, so
// the floats come out bit-identical.
func (in *Instance) replay(picks []pick) frame {
	var f frame
	for _, p := range picks {
		f = in.add(f, p.j, p.oi)
	}
	return f
}

// feasible validates a pick sequence: strictly ascending cluster
// indices, in-range option indices, no overlap conflicts, within the
// pick budget.
func (in *Instance) feasible(picks []pick) error {
	if len(picks) > in.maxPicks() {
		return fmt.Errorf("milp: %d picks exceed budget %d", len(picks), in.maxPicks())
	}
	last := -1
	for i, p := range picks {
		if p.j <= last || p.j >= len(in.Clusters) {
			return fmt.Errorf("milp: pick order violation at cluster %d", p.j)
		}
		if p.oi < 0 || p.oi >= len(in.Clusters[p.j].Options) {
			return fmt.Errorf("milp: cluster %d has no option %d", p.j, p.oi)
		}
		if in.clashes(picks[:i], p.j) {
			return fmt.Errorf("milp: cluster %d conflicts with an earlier pick", p.j)
		}
		last = p.j
	}
	return nil
}

// Greedy replays one round of the Fig. 1 greedy loop on the instance:
// the minimum-OF viable pick in (pre-selection rank, resource set)
// order, or the empty configuration (OF = F) when no pick beats the
// all-software objective. With MaxCores=1 — the paper's Table 1 setting
// — this is exactly the partition the greedy engine returns, priced by
// the same floats (pinned by TestGreedyMatchesPartition).
func (in *Instance) Greedy() (of float64, j, oi int) {
	of, j, oi = in.F, -1, -1
	for jj := range in.Clusters {
		for ii := range in.Clusters[jj].Options {
			if o := &in.Clusters[jj].Options[ii]; o.OF < of {
				of, j, oi = o.OF, jj, ii
			}
		}
	}
	return of, j, oi
}

// BuildInstance flattens one cache geometry's priced grid (dse.NewGrid,
// against the shared Evaluator) into a self-contained Instance.
// Only picks passing the Fig. 1 acceptance test become Options — the
// grid's Viable lists, which internal/dse branches on too, so the two
// engines search the same feasible space.
func BuildInstance(pe *partition.Evaluator, base *partition.Baseline,
	geom [2]cache.Config, maxHW int) (*Instance, error) {
	g, err := dse.NewGrid(pe, base)
	if err != nil {
		return nil, err
	}
	pcfg := pe.Config()
	in := &Instance{
		Geom:           geom,
		MuPE:           float64(base.MuPEnergy),
		RestE:          float64(base.RestEnergy),
		IAcc:           float64(base.ICacheAccessEnergy),
		E0:             float64(base.TotalEnergy),
		T0:             base.TotalCycles,
		F:              pcfg.F,
		HardwareWeight: partition.HardwareWeight,
		TimeWeight:     partition.TimeWeight,
		GEQBudget:      pcfg.GEQBudget,
		MaxHW:          maxHW,
		Clusters:       make([]Cluster, len(g.Pool)),
	}
	for j, c := range g.Pool {
		cl := &in.Clusters[j]
		cl.Region, cl.Label, cl.Instrs, cl.Parent = c.Region.ID, c.Region.Label, c.MuP.Instrs, g.Parent[j]
		for _, si := range g.Viable[j] {
			e := g.Evals[j][si]
			cl.Options = append(cl.Options, Option{
				Set:      e.RS.Name,
				SetIndex: si,
				Saved:    float64(e.EMuPSaved),
				EASIC:    float64(e.EASIC),
				CycEx:    e.EstCycles - base.TotalCycles,
				GEQ:      e.GEQ,
				OF:       e.OF,
			})
		}
	}
	return in, nil
}
