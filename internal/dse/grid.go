package dse

import "lppart/internal/partition"

// Grid is one cache geometry's priced 0-1 design space — the single
// problem object both the Pareto search and the exact solver
// (internal/milp) read, so the two price, accept and exclude from the
// same floats.
type Grid struct {
	// All is every candidate cluster (the decision trails' Candidates);
	// Pool is its Fig. 3 pre-selection in rank order.
	All, Pool []*partition.Candidate
	// Evals[j][si] prices Pool[j] on resource set si against the
	// geometry's baseline; Pool[j].Evals carries the same row.
	Evals [][]*partition.SetEval
	// Viable[j] lists the set indices of Pool[j] passing the Fig. 1
	// acceptance test (eligible AND OF below the all-software objective):
	// the only picks either solver branches on. That keeps every point's
	// decision trail auditable — AuditDecision requires Chosen.OF < F —
	// and matches what the greedy loop could ever select.
	Viable [][]int
	// Parent[j] is 1 + the pool index of Pool[j]'s nearest enclosing
	// pool cluster, 0 at the top: the region tree restricted to the pool,
	// whose ancestry is cdfg.Region.Overlaps (picking both is infeasible).
	Parent []int
}

// clashes reports whether pool cluster j overlaps a picked one.
func (g *Grid) clashes(picked []int, j int) bool {
	for _, a := range picked {
		if g.Pool[a].Region.Overlaps(g.Pool[j].Region) {
			return true
		}
	}
	return false
}

// NewGrid prices one geometry's (cluster, resource set) grid against
// base. The evaluator caches both the schedule/binding and the
// baseline-independent term decomposition of every pair across
// geometries, so only the first geometry pays Fig. 1 lines 8-10; every
// other geometry re-runs just the baseline-dependent price tail.
func NewGrid(pe *partition.Evaluator, base *partition.Baseline) (*Grid, error) {
	pcfg := pe.Config()
	all, pool := pe.Candidates(base)
	g := &Grid{All: all, Pool: pool,
		Evals:  make([][]*partition.SetEval, len(pool)),
		Viable: make([][]int, len(pool)),
	}
	for j, c := range pool {
		g.Evals[j] = make([]*partition.SetEval, len(pcfg.ResourceSets))
		for si := range g.Evals[j] {
			e, err := pe.Eval(base, c, si, false, false)
			if err != nil {
				return nil, err
			}
			g.Evals[j][si] = e
			if e.Eligible && e.OF < pcfg.F {
				g.Viable[j] = append(g.Viable[j], si)
			}
		}
		c.Evals = g.Evals[j]
	}
	g.Parent = make([]int, len(pool))
	for j, c := range pool {
		for r := c.Region.Parent; r != nil && g.Parent[j] == 0; r = r.Parent {
			for a, o := range pool {
				if o.Region == r {
					g.Parent[j] = a + 1
				}
			}
		}
	}
	return g, nil
}

// floors bounds what any extension of a search subtree can still
// achieve. For a subtree that may move at most k more clusters from
// pool[i:] to hardware, none overlapping the picked pool clusters,
// level returns
//
//	dE     — an upper bound on how much total energy it can still remove,
//	dC     — an upper bound on how many cycles it can still remove,
//	minGEQ — a lower bound on the hardware effort it must add (0 only if
//	         the empty extension is allowed, which it always is).
//
// The floors feed partition.Priced.LowerBound, so they must be
// admissible: over-reporting dE/dC or under-reporting minGEQ would
// prune reachable frontier points. They are also monotone in i, which
// lets the search cut the remainder of a level after the first
// dominated bound.
//
// Both bounds aggregate the same per-cluster potentials. The default
// floors are plain suffix sums, ignoring k, the path and overlaps (all
// three relaxations only loosen them). The exact floors (exact set)
// solve each query's actual subproblem, add per-branch floors, and cut
// dominated options.
type floors struct {
	potE   []float64
	potC   []int64
	minGEQ []int

	sufE []float64
	sufC []int64
	sufG []int

	exact bool
	grid  *Grid
	cut   map[[2]int]bool // (cluster, set index) dominated by a sibling
}

// newFloors computes a geometry's floors from its grid. The
// per-cluster potentials start from the Fig. 3 pre-selection metric and
// are tightened by the computed evaluations:
//
//	potE[j] >= -ΔE_j for every viable pick of cluster j: the ASIC
//	  estimate pays at least the Fig. 3 bus transfers
//	  (E_ASIC >= Inv·E_Trans), so the best case is saving the cluster's
//	  full µP energy and its i-cache fetches while paying only those
//	  transfers — exactly the pre-selection score plus the fetch term.
//	  The minimum over the cluster's viable evaluations is a second,
//	  usually tighter, admissible bound (a leaf must use one of them);
//	  take the min.
//	potC[j] >= -ΔC_j: bounded by the minimum viable cycle delta (and by
//	  -Cycles_j, which that minimum already respects since hardware time
//	  is >= 0).
//	minGEQ[j] <= ΔGEQ_j: the cheapest viable resource set's cells — GEQ
//	  only ever grows, and every extension adds >= 1 cluster.
func newFloors(g *Grid, base *partition.Baseline, exact bool) *floors {
	iAcc := float64(base.ICacheAccessEnergy)
	n := len(g.Pool)
	f := &floors{
		potE: make([]float64, n), potC: make([]int64, n), minGEQ: make([]int, n),
		exact: exact, grid: g,
	}
	for j, c := range g.Pool {
		scorePot := c.Score + float64(c.MuP.Instrs)*iAcc
		bestE, bestC := 0.0, int64(0)
		for k, si := range g.Viable[j] {
			e := g.Evals[j][si]
			dE := float64(e.EASIC) - float64(e.EMuPSaved) - float64(c.MuP.Instrs)*iAcc
			dC := e.EstCycles - base.TotalCycles
			if k == 0 || dE < bestE {
				bestE = dE
			}
			if dC < bestC {
				bestC = dC
			}
			if k == 0 || e.GEQ < f.minGEQ[j] {
				f.minGEQ[j] = e.GEQ
			}
		}
		if p := -bestE; p > 0 {
			f.potE[j] = p
		}
		if f.potE[j] > scorePot && scorePot >= 0 {
			f.potE[j] = scorePot
		}
		if bestC < 0 {
			f.potC[j] = -bestC
		}
	}
	if exact {
		f.cut = dominatedOptions(g)
		return f
	}
	f.sufE, f.sufC, f.sufG = make([]float64, n+1), make([]int64, n+1), make([]int, n+1)
	for j := n - 1; j >= 0; j-- {
		f.sufE[j] = f.sufE[j+1] + f.potE[j]
		f.sufC[j] = f.sufC[j+1] + f.potC[j]
		f.sufG[j] = f.sufG[j+1]
		if len(g.Viable[j]) > 0 && (f.sufG[j] == 0 || f.minGEQ[j] < f.sufG[j]) {
			f.sufG[j] = f.minGEQ[j]
		}
	}
	return f
}

// level returns the floors of every extension drawing from pool[i:].
// The exact floors maximize each potential sum over at most k pairwise
// non-overlapping clusters clear of picked — every discount an
// infeasibility of the real search space, so they stay admissible while
// never exceeding the suffix sums.
func (f *floors) level(i, k int, picked []int) (float64, int64, int) {
	if !f.exact {
		return f.sufE[i], f.sufC[i], f.sufG[i]
	}
	minG := 0
	for j := i; j < len(f.potE); j++ {
		if !f.grid.clashes(picked, j) && len(f.grid.Viable[j]) > 0 && (minG == 0 || f.minGEQ[j] < minG) {
			minG = f.minGEQ[j]
		}
	}
	return bestSum(f.grid, f.potE, i, k, picked), bestSum(f.grid, f.potC, i, k, picked), minG
}

// branch returns the exact floors of the extensions whose first pick is
// viable cluster j: j's own potentials and cheapest GEQ plus at most k-1
// further picks from pool[j+1:]. Committing to j pays its own GEQ rather
// than the suffix-wide minimum, and dE/dC can no longer combine per-axis
// optima of different first picks, so a dominated branch skips just
// cluster j where the level bound cuts whole suffixes.
func (f *floors) branch(j, k int, picked []int) (float64, int64, int) {
	picked = append(picked, j)
	return f.potE[j] + bestSum(f.grid, f.potE, j+1, k-1, picked),
		f.potC[j] + bestSum(f.grid, f.potC, j+1, k-1, picked), f.minGEQ[j]
}

// bestSum maximizes the sum of at most k positive potentials from
// pot[i:], pairwise non-overlapping and clear of picked, whose spare
// capacity holds the DFS's own picks. Deterministic ascending-index DFS;
// cost O(n^k), noise next to the pair pricing at the pool sizes (<= 24)
// and pick budgets the exact bound runs with.
func bestSum[T float64 | int64](g *Grid, pot []T, i, k int, picked []int) T {
	var best T
	if k == 0 {
		return best
	}
	for j := i; j < len(pot); j++ {
		if pot[j] <= 0 || g.clashes(picked, j) {
			continue
		}
		if v := pot[j] + bestSum(g, pot, j+1, k-1, append(picked, j)); v > best {
			best = v
		}
	}
	return best
}

// dominatedOptions returns the exact bound's dominance cuts. Within one
// cluster the implementations are mutually exclusive and their per-axis
// deltas against the shared baseline are exact, so an option pointwise
// no better than a sibling — energy delta EASIC-EMuPSaved (the fetch
// term is the cluster's own and cancels), estimated cycles and GEQ — is
// dropped from every configuration: swapping in the sibling improves the
// point pointwise, so the reduced frontier is unchanged. Exact three-way
// ties keep the smallest set index, matching the frontier's tie-break.
func dominatedOptions(g *Grid) map[[2]int]bool {
	cut := map[[2]int]bool{}
	for j, vs := range g.Viable {
		for _, si2 := range vs {
			e2 := g.Evals[j][si2]
			dE2 := float64(e2.EASIC) - float64(e2.EMuPSaved)
			for _, si1 := range vs {
				e1 := g.Evals[j][si1]
				dE1 := float64(e1.EASIC) - float64(e1.EMuPSaved)
				if si1 == si2 || dE1 > dE2 || e1.EstCycles > e2.EstCycles || e1.GEQ > e2.GEQ {
					continue
				}
				if si1 < si2 || dE1 < dE2 || e1.EstCycles < e2.EstCycles || e1.GEQ < e2.GEQ {
					cut[[2]int{j, si2}] = true
					break
				}
			}
		}
	}
	return cut
}
