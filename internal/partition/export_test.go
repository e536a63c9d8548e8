package partition

import (
	"fmt"
	"sort"
)

// EvalFull is the single-pass reference EvalInto's cached terms are
// compared with: evaluate (termsOf then price, nothing cached) on the
// pair's cached schedule/binding, which an Eval binds first if needed.
func (e *Evaluator) EvalFull(base *Baseline, c *Candidate, si int, prevHW, nextHW bool) (*SetEval, error) {
	if _, err := e.Eval(base, c, si, prevHW, nextHW); err != nil {
		return nil, err
	}
	br := e.pairs[pairKey{region: c.Region.ID, set: si}].br
	return evaluate(base, e.cfg, c, &e.cfg.ResourceSets[si], br, prevHW, nextHW), nil
}

// CandidatesPerCall is the reference Candidates is compared with: it
// derives every field on each call, running EstimateTraffic per region
// (one dataflow.Index each) and recounting eligibility and invocations.
func (e *Evaluator) CandidatesPerCall(base *Baseline) (all, pool []*Candidate) {
	cum := cumulative(e.p.Regions(), base.Regions)
	for _, r := range e.p.Regions() {
		c := &Candidate{Region: r}
		all = append(all, c)
		if reason := ineligible(e.p, e.prof, r); reason != "" {
			c.SkipReason = reason
			continue
		}
		prev, next := siblings(r)
		c.Traffic = EstimateTraffic(e.p, r, prev, next, e.cfg.Lib)
		c.MuP = cum[r.ID]
		c.Invocations = invocationsOf(e.prof, r)
		if c.MuP == nil || c.MuP.Instrs == 0 {
			c.SkipReason = "cluster never executed on the µP"
			continue
		}
		c.Score = float64(c.MuP.Energy) - float64(c.Traffic.Energy)*float64(c.Invocations)
	}
	for _, c := range all {
		if c.SkipReason == "" {
			pool = append(pool, c)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Score != pool[j].Score {
			return pool[i].Score > pool[j].Score
		}
		return pool[i].Region.ID < pool[j].Region.ID
	})
	if len(pool) > e.cfg.MaxClusters {
		for _, c := range pool[e.cfg.MaxClusters:] {
			c.SkipReason = fmt.Sprintf("pre-selection: below top %d by bus-traffic score", e.cfg.MaxClusters)
		}
		pool = pool[:e.cfg.MaxClusters]
	}
	for _, c := range pool {
		c.Preselected = true
	}
	return all, pool
}
