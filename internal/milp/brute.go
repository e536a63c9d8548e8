package milp

import (
	"lppart/internal/iss"
	"lppart/internal/partition"
	"lppart/internal/units"
)

// BruteForce exhaustively enumerates every feasible configuration of
// the instance and returns the minimum-objective one. It deliberately
// does NOT reuse the solver's frame arithmetic: configurations are
// spliced through partition.Priced — the accumulator the greedy engine
// and internal/dse price with — and scalarized with the instance's
// weights, so a bit-exact match against SolveInstance is a differential
// proof that the solver's expression tree mirrors the repo's pricing
// path, not a tautology. Ties on the objective keep the
// lexicographically smallest pick sequence.
//
// Cost is O(options^maxPicks · clusters): the testing oracle for small
// instances, not a production path.
func BruteForce(in *Instance) (*Optimum, error) {
	if err := in.forest(); err != nil {
		return nil, err
	}
	base := &partition.Baseline{
		TotalEnergy:        units.Energy(in.E0),
		MuPEnergy:          units.Energy(in.MuPE),
		RestEnergy:         units.Energy(in.RestE),
		TotalCycles:        in.T0,
		ICacheAccessEnergy: units.Energy(in.IAcc),
	}
	// Synthetic candidates/evals carrying exactly the fields Priced.Add
	// reads.
	cands := make([]*partition.Candidate, len(in.Clusters))
	evals := make([][]*partition.SetEval, len(in.Clusters))
	for j := range in.Clusters {
		cl := &in.Clusters[j]
		cands[j] = &partition.Candidate{MuP: &iss.RegionStat{Instrs: cl.Instrs}}
		evals[j] = make([]*partition.SetEval, len(cl.Options))
		for oi := range cl.Options {
			o := &cl.Options[oi]
			evals[j][oi] = &partition.SetEval{
				EMuPSaved: units.Energy(o.Saved),
				EASIC:     units.Energy(o.EASIC),
				EstCycles: in.T0 + o.CycEx,
				GEQ:       o.GEQ,
			}
		}
	}

	scalarize := func(e float64, c int64, g int) float64 {
		slow := float64(c)/float64(in.T0) - 1
		if slow < 0 {
			slow = 0
		}
		return in.F*e/in.E0 + in.HardwareWeight*float64(g)/float64(in.GEQBudget) +
			in.TimeWeight*slow
	}

	pr := partition.NewPriced(base)
	maxPicks := in.maxPicks()
	bestE, bestC, bestG := pr.Point()
	bestOF := scalarize(bestE, bestC, bestG)
	var bestPicks []pick
	var nodes int64 = 1

	picks := make([]pick, 0, maxPicks)
	var walk func(i int)
	walk = func(i int) {
		if len(picks) >= maxPicks {
			return
		}
		for j := i; j < len(in.Clusters); j++ {
			if in.clashes(picks, j) {
				continue
			}
			for oi := range in.Clusters[j].Options {
				pr.Add(cands[j], evals[j][oi])
				picks = append(picks, pick{j, oi})
				nodes++
				e, c, g := pr.Point()
				of := scalarize(e, c, g)
				if of < bestOF || (of == bestOF && lexLess(picks, bestPicks)) {
					bestOF = of
					bestE, bestC, bestG = e, c, g
					bestPicks = append([]pick(nil), picks...)
				}
				walk(j + 1)
				picks = picks[:len(picks)-1]
				pr.Remove()
			}
		}
	}
	walk(0)

	opt := &Optimum{
		App:    in.App,
		Geom:   in.Geom,
		OF:     bestOF,
		Energy: units.Energy(bestE),
		Cycles: bestC,
		GEQ:    bestG,
		Stats:  SolveStats{Nodes: nodes, Proven: true, Bound: bestOF},
		Inst:   in,
	}
	for _, p := range bestPicks {
		opt.Picks = append(opt.Picks, in.pickOf(p))
	}
	return opt, nil
}
