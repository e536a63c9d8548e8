package milp

import "math"

// The lower bound is a knapsack/cardinality relaxation of the objective.
// Write a configuration's objective as
//
//	OF = F·(clamp(µP−saved) + easic + clamp(rest−instrs·IAcc))/E_0
//	   + w_hw·GEQ/budget + w_t·max(0, cycEx/T_0)
//
// For a node with accumulated frame f that may still pick at most k
// clusters from Clusters[i:], relax three ways, each only lowering the
// value:
//
//  1. Drop the energy clamps: clamp(x) >= x, so the linear energy
//     linE = µP−saved + easic + rest−instrs·IAcc under-approximates.
//  2. Split the slowdown clamp per future pick with
//     max(0, a+Σb_j) >= max(0,a) + Σ min(0,b_j)
//     (if a+Σb <= 0 the left side is 0 and the right side is <= 0;
//     otherwise drop the clamp on the left and min() only shrinks each
//     b_j). a is the node's own cycEx/T_0, b_j a pick's cycle delta.
//  3. Relax the overlap-exclusion constraints and let each future
//     cluster contribute its cheapest per-pick objective delta
//     δ_j = min over options of
//     F·(easic−saved−instrs·IAcc)/E_0 + w_hw·GEQ/budget
//     + w_t·min(0, cycEx)/T_0,
//     with at most k picks — a cardinality-constrained selection whose
//     optimum D[k][i] = min(D[k][i+1], δ_i + D[k−1][i+1]) a small DP
//     table answers for every (k, suffix) pair. D <= 0 always (picking
//     nothing is allowed), so adding D never raises the bound.
//
// The relaxation is admissible in real arithmetic; downward() widens it
// by a margin dwarfing IEEE-754 rounding so it stays admissible under
// the float evaluation order too (see DESIGN.md §10).

// downward nudges a lower bound down by a relative plus absolute margin
// (~1e-9) that is orders of magnitude above the rounding error a few
// dozen float operations accumulate (~1e-13 relative) and orders below
// any meaningful objective difference. Lowering a lower bound can only
// cost pruning effectiveness, never correctness.
func downward(x float64) float64 {
	return x - (math.Abs(x)*1e-9 + 1e-12)
}

// relaxation precomputes the per-cluster deltas and the cardinality DP
// table for one instance.
type relaxation struct {
	in *Instance
	// delta[j] is the cheapest relaxed objective delta of moving cluster
	// j to hardware; +Inf when the cluster has no viable option.
	delta []float64
	// table[k*(n+1)+i] is the minimum relaxed delta sum achievable
	// picking at most k clusters from Clusters[i:], overlaps ignored: the
	// D[k][i] above, one row per k. D[k][n] = D[0][i] = 0.
	table []float64
}

// newRelaxation builds an instance's relaxation.
//
//lint:alloc per-solve precompute, sized by the instance and not by the search
func newRelaxation(in *Instance) *relaxation {
	n := len(in.Clusters)
	maxK := in.maxPicks()
	r := &relaxation{in: in, delta: make([]float64, n)}
	for j := range in.Clusters {
		cl := &in.Clusters[j]
		best := math.Inf(1)
		for oi := range cl.Options {
			o := &cl.Options[oi]
			d := in.F*(o.EASIC-o.Saved-float64(cl.Instrs)*in.IAcc)/in.E0 +
				in.HardwareWeight*float64(o.GEQ)/float64(in.GEQBudget)
			if o.CycEx < 0 {
				d += in.TimeWeight * float64(o.CycEx) / float64(in.T0)
			}
			if d < best {
				best = d
			}
		}
		r.delta[j] = best
	}
	r.table = make([]float64, (maxK+1)*(n+1))
	for k := 1; k <= maxK; k++ {
		row, prev := r.table[k*(n+1):(k+1)*(n+1)], r.table[(k-1)*(n+1):k*(n+1)]
		for i := n - 1; i >= 0; i-- {
			v := row[i+1]
			if !math.IsInf(r.delta[i], 1) {
				if w := r.delta[i] + prev[i+1]; w < v {
					v = w
				}
			}
			row[i] = v
		}
	}
	return r
}

// bound under-approximates the objective of every configuration that
// extends frame f (picked clusters below next, used picks so far) with
// clusters drawn from Clusters[next:].
//
//lint:hotpath evaluated once per open search-tree node
func (r *relaxation) bound(f frame, next, used int) float64 {
	in := r.in
	k := in.maxPicks() - used
	if k < 0 {
		k = 0
	}
	linE := in.MuPE - f.saved + f.easic + in.RestE - float64(f.instrs)*in.IAcc
	slow := float64(f.cycEx) / float64(in.T0)
	if slow < 0 {
		slow = 0
	}
	lb := in.F*linE/in.E0 + in.HardwareWeight*float64(f.geq)/float64(in.GEQBudget) +
		in.TimeWeight*slow + r.table[k*(len(in.Clusters)+1)+next]
	return downward(lb)
}
