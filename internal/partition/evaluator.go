package partition

import (
	"fmt"
	"sort"

	"lppart/internal/cdfg"
	"lppart/internal/dataflow"
)

// pairKey identifies one (cluster, resource set) pair in the evaluator's
// cache: Fig. 1 lines 8-10 depend only on this pair, not on the baseline
// they are judged against, so every search over the design space — the
// greedy MaxCores rounds here, the branch-and-bound subtrees and cache
// geometries of internal/dse, the exact instance of internal/milp — can
// share one cache.
type pairKey struct {
	region int // region ID
	set    int // resource-set index
}

// pairEntry is one pair's cached work: its schedule/binding and, per
// Fig. 3 synergy-flag combination (bit 0 prevHW, bit 1 nextHW), the
// baseline-independent term decomposition priced on top of it.
type pairEntry struct {
	br    *bindResult
	terms [4]*pairTerms
}

// Evaluator exposes the Fig. 1 building blocks — candidate enumeration
// with the Fig. 3 bus-traffic pre-selection, and the per-(cluster,
// resource set) schedule/bind/objective evaluation — to callers that
// walk the design space in a different order than the greedy loop.
// Partition itself runs on one, and internal/dse's Pareto explorer and
// internal/milp's exact instance share its pair cache across their
// subtrees and cache geometries through the same type.
//
// An Evaluator is not safe for concurrent use: its pair cache has one
// writer. Callers that fan out over its results (internal/dse's
// geometries, internal/milp's instances) price every pair serially first
// and hand the workers only the finished, immutable evaluations.
type Evaluator struct {
	p    *cdfg.Program
	prof *cdfg.Profile
	cfg  Config
	// regions is p.Regions(); static[i] is regions[i]'s
	// baseline-independent candidate half.
	regions []*cdfg.Region
	static  []staticCandidate

	pairs map[pairKey]*pairEntry
	stats MemoStats // Binds and Hits; Pairs is len(pairs)
}

// staticCandidate is the half of a Candidate that does not depend on the
// baseline: the eligibility verdict, the Fig. 3 bus-traffic estimate
// (gen/use sets only) and the invocation count (the profile only).
type staticCandidate struct {
	skip        string
	traffic     Traffic
	invocations int64
}

// NewEvaluator validates the inputs (running the cdfg/dataflow verifiers
// when cfg.Verify is set) and returns an evaluator with an empty pair
// cache.
// It computes every region's baseline-independent candidate half here,
// once, so Candidates — called per cache geometry by the design-space
// searches — only prices the baseline-dependent rest.
func NewEvaluator(p *cdfg.Program, prof *cdfg.Profile, cfg Config) (*Evaluator, error) {
	cfg.defaults()
	if prof == nil {
		return nil, fmt.Errorf("partition: profile is required")
	}
	regions := p.Regions()
	if cfg.Verify {
		if err := cdfg.Verify(p); err != nil {
			return nil, err
		}
		for _, r := range regions {
			if err := dataflow.VerifyGenUse(p, r); err != nil {
				return nil, err
			}
		}
	}
	// Steps 1-4 (Fig. 1), the baseline-independent part: eligibility
	// and the Fig. 3 bus-traffic estimate, whose variable index is built
	// once per function.
	static := make([]staticCandidate, len(regions))
	var (
		ix     *dataflow.Index
		ixFunc *cdfg.Function
	)
	for i, r := range regions {
		s := &static[i]
		if s.skip = ineligible(p, prof, r); s.skip != "" {
			continue
		}
		prev, next := siblings(r)
		if ixFunc != r.Func {
			ix, ixFunc = dataflow.NewIndex(p, r.Func), r.Func
		}
		s.traffic = estimateTrafficOn(ix, r, prev, next, cfg.Lib)
		s.invocations = invocationsOf(prof, r)
	}
	return &Evaluator{p: p, prof: prof, cfg: cfg,
		regions: regions, static: static,
		pairs: make(map[pairKey]*pairEntry)}, nil
}

// Config returns the evaluator's fully-defaulted configuration.
func (e *Evaluator) Config() Config { return e.cfg }

// Program returns the program under evaluation.
func (e *Evaluator) Program() *cdfg.Program { return e.p }

// Candidates runs Fig. 1 steps 1-5 against a measured baseline: cluster
// decomposition (the region tree), per-cluster eligibility, the Fig. 3
// bus-traffic estimate and score, and the N_max^c pre-selection. It
// returns every candidate (with skip reasons filled in) and the
// pre-selected pool in rank order. Eligibility and traffic come from
// NewEvaluator; only the cumulative µP costs, the scores and the rank
// depend on base.
func (e *Evaluator) Candidates(base *Baseline) (all, pool []*Candidate) {
	cum := cumulative(e.regions, base.Regions)

	// Steps 1-2: G = {V,E} and cluster decomposition are the cdfg region
	// tree. Every call returns fresh candidates: callers fill in Evals.
	cands := make([]Candidate, len(e.regions))
	all = make([]*Candidate, len(e.regions))
	for i, r := range e.regions {
		c, s := &cands[i], &e.static[i]
		c.Region = r
		all[i] = c
		if s.skip != "" {
			c.SkipReason = s.skip
			continue
		}
		// Steps 3-4: bus transfer energy (Fig. 3).
		c.Traffic = s.traffic
		c.MuP = cum[r.ID]
		c.Invocations = s.invocations
		if c.MuP == nil || c.MuP.Instrs == 0 {
			c.SkipReason = "cluster never executed on the µP"
			continue
		}
		// Pre-selection score: expected gross win = µP energy spent in
		// the cluster minus the bus-transfer energy it would add.
		perInvocationTransfers := c.Traffic.Energy
		c.Score = float64(c.MuP.Energy) - float64(perInvocationTransfers)*float64(c.Invocations)
	}

	// Step 5: pre-select the N_max^c most promising clusters.
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
		reason := fmt.Sprintf("pre-selection: below top %d by bus-traffic score", e.cfg.MaxClusters)
		for _, c := range pool[e.cfg.MaxClusters:] {
			c.SkipReason = reason
		}
		pool = pool[:e.cfg.MaxClusters]
	}
	for _, c := range pool {
		c.Preselected = true
	}
	return all, pool
}

// EvalInto runs Fig. 1 lines 8-13 for one (cluster, resource set,
// synergy) triple against a baseline, writing into out. Only the first
// evaluation of a pair pays for the list schedule and the Fig. 4
// binding, and only the first per synergy-flag combination for the
// baseline-independent term decomposition; every later baseline — a
// greedy round's shifted one, a cache geometry's swept one — re-runs
// just the baseline-dependent price tail. The priced SetEval is
// byte-identical to a single-pass evaluation: termsOf/price partition
// the original expression tree without reassociating any float
// operation. The warm path performs no heap allocation.
//
// Every evaluation of a pair shares its one *asic.Binding. The returned
// error is a Config.Verify violation (an internal invariant failure),
// never a property of the design point — infeasible points come back as
// ineligible SetEvals.
//
//lint:hotpath guarded by TestEvalIntoZeroAlloc
func (e *Evaluator) EvalInto(base *Baseline, c *Candidate, si int, prevHW, nextHW bool, out *SetEval) error {
	rs := &e.cfg.ResourceSets[si]
	key := pairKey{region: c.Region.ID, set: si}
	ent := e.pairs[key]
	if ent == nil {
		e.stats.Binds++
		ent = &pairEntry{br: scheduleBind(e.prof, e.cfg, c, rs)} //lint:alloc pair-cache miss; the warm path reuses the cached entry
		e.pairs[key] = ent
	} else {
		e.stats.Hits++
	}
	br := ent.br
	if br.verifyErr != nil {
		return br.verifyErr
	}
	syn := 0
	if prevHW {
		syn |= 1
	}
	if nextHW {
		syn |= 2
	}
	t := ent.terms[syn]
	if t == nil || t.micro != base.Micro {
		// First sighting of these flags, or the baseline's µP model
		// changed: decompose from scratch.
		t = termsOf(base, e.cfg, c, rs, br, prevHW, nextHW)
		ent.terms[syn] = t
	}
	t.price(base, e.cfg, rs, out)
	return nil
}

// Eval is EvalInto with a freshly allocated SetEval.
func (e *Evaluator) Eval(base *Baseline, c *Candidate, si int, prevHW, nextHW bool) (*SetEval, error) {
	out := &SetEval{}
	if err := e.EvalInto(base, c, si, prevHW, nextHW, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MemoStats reports the pair cache's effectiveness.
func (e *Evaluator) MemoStats() MemoStats {
	s := e.stats
	s.Pairs = len(e.pairs)
	return s
}
