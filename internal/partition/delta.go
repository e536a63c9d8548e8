package partition

// pricedFrame is one snapshot of the Priced accumulators.
type pricedFrame struct {
	saved, easic  float64
	instrs, cycEx int64
	geq           int
}

// Priced is a priced configuration: a baseline plus an additive
// decomposition of the objective terms over a stack of chosen clusters.
// Add splices one cluster's terms in; Remove splices the last one out by
// restoring the exact prior accumulator snapshot, so a DFS whose
// parent→child edges are one-cluster deltas computes every
// configuration's floats by the same path-order expression tree as
// passing the accumulators down functionally — byte-identical objectives,
// O(1) per edge.
type Priced struct {
	// MuPE/RestE/IAcc/T0 mirror the baseline in float/scalar form.
	MuPE, RestE, IAcc float64
	T0                int64

	cur   pricedFrame
	stack []pricedFrame
}

// NewPriced roots a priced configuration at a baseline (the empty,
// all-software configuration).
func NewPriced(base *Baseline) *Priced {
	return &Priced{
		MuPE:  float64(base.MuPEnergy),
		RestE: float64(base.RestEnergy),
		IAcc:  float64(base.ICacheAccessEnergy),
		T0:    base.TotalCycles,
	}
}

// Add splices one accepted (cluster, evaluation) into the configuration.
//
//lint:hotpath O(1) splice inside the DSE inner loop
func (p *Priced) Add(c *Candidate, ev *SetEval) {
	p.stack = append(p.stack, p.cur)
	p.cur.saved += float64(ev.EMuPSaved)
	p.cur.easic += float64(ev.EASIC)
	p.cur.instrs += c.MuP.Instrs
	p.cur.cycEx += ev.EstCycles - p.T0
	p.cur.geq += ev.GEQ
}

// Remove splices the most recently added cluster back out, restoring the
// exact accumulator values of the parent configuration.
//
//lint:hotpath O(1) splice inside the DSE inner loop
func (p *Priced) Remove() {
	p.cur = p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
}

// Depth returns how many clusters are currently spliced in.
func (p *Priced) Depth() int { return len(p.stack) }

// Point clamps the accumulators into the configuration's objective
// triple (total energy, execution cycles, hardware effort) — the same
// clamped expression tree the DSE search records.
func (p *Priced) Point() (energy float64, cycles int64, geq int) {
	mu := p.MuPE - p.cur.saved
	if mu < 0 {
		mu = 0
	}
	rest := p.RestE - float64(p.cur.instrs)*p.IAcc
	if rest < 0 {
		rest = 0
	}
	c := p.T0 + p.cur.cycEx
	if c < 1 {
		c = 1
	}
	return mu + p.cur.easic + rest, c, p.cur.geq
}

// LowerBound under-approximates every objective reachable by extending
// the configuration with clusters whose remaining potential is (sufE,
// sufC, sufG): clamping only raises the real values, so a dominated
// bound proves the whole subtree dominated (admissible pruning).
func (p *Priced) LowerBound(sufE float64, sufC int64, sufG int) (energy float64, cycles int64, geq int) {
	elb := p.MuPE - p.cur.saved + p.cur.easic + p.RestE - float64(p.cur.instrs)*p.IAcc - sufE
	if elb < 0 {
		elb = 0
	}
	clb := p.T0 + p.cur.cycEx - sufC
	if clb < 1 {
		clb = 1
	}
	return elb, clb, p.cur.geq + sufG
}
