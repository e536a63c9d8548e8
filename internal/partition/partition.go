package partition

import (
	"context"
	"fmt"
	"strings"

	"lppart/internal/asic"
	"lppart/internal/cdfg"
	"lppart/internal/iss"
	"lppart/internal/sched"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// Config is the designer's interaction surface (paper §3.5: "the designer
// does have manifold possibilities of interaction like defining several
// sets of resources, defining constraints like the total number of
// clusters to be selected or to modify the objective function").
type Config struct {
	Lib *tech.Library
	// ResourceSets are the designer-supplied hardware budgets (Fig. 1
	// line 7); nil selects tech.DefaultResourceSets().
	ResourceSets []tech.ResourceSet
	// MaxClusters is N_max^c, the pre-selection budget (Fig. 1 line 5).
	// 0 means 5.
	MaxClusters int
	// MaxCores extends the paper's single-ASIC experiments to multiple
	// application-specific cores (Eq. 3 is stated for N cores): a greedy
	// sequence of Fig. 1 passes, each excluding clusters that overlap
	// earlier choices and applying Fig. 3's synergy discounts (steps 2/4)
	// when a neighbouring sibling cluster is already in hardware.
	// 0 means 1.
	MaxCores int
	// F balances the objective function between energy and the other
	// design constraints (Fig. 1 line 13). 0 means 1.0.
	F float64
	// GEQBudget rejects clusters whose core exceeds this many cells
	// (the paper's "less than 16k cells" working bound). 0 means 16000.
	GEQBudget int
	// WeightedU switches Eq. 4 to size-weighted utilization (ablation
	// A4; the paper argues and we verify it does not change partitions).
	WeightedU bool
	// Verify runs the pipeline-stage verifiers alongside the process:
	// cdfg.Verify and dataflow.VerifyGenUse on the input program,
	// sched.VerifyIR and asic.VerifyBinding on every freshly computed
	// schedule/binding, and AuditDecision on the result. Any violation
	// aborts Partition with an error — these are internal invariants, so
	// a failure is a bug, not a property of the design space.
	Verify bool
}

// HardwareWeight and TimeWeight weigh the non-energy terms of the
// objective function (the "+ ..." of Fig. 1 line 13): hardware cost
// normalized to GEQBudget, and any execution-time *increase* as a
// fraction of the initial time.
const (
	HardwareWeight = 0.05
	TimeWeight     = 1.0
)

func (c *Config) defaults() {
	if c.Lib == nil {
		c.Lib = tech.Default()
	}
	c.Defaults()
}

// Defaults fills every zero knob of the Fig. 1 input tuple (resource
// sets, N_max^c, core count, F, GEQ budget) with its documented
// default; it leaves Lib alone. Callers that key on the defaulted
// tuple, such as lppartd's request hashes, resolve it here, so the
// defaults live in one place.
func (c *Config) Defaults() {
	if c.ResourceSets == nil {
		c.ResourceSets = tech.DefaultResourceSets()
	}
	if c.MaxClusters == 0 {
		c.MaxClusters = 5
	}
	if c.MaxCores == 0 {
		c.MaxCores = 1
	}
	if c.F == 0 {
		c.F = 1.0
	}
	if c.GEQBudget == 0 {
		c.GEQBudget = 16000
	}
}

// Baseline carries the measured initial (all-software) design the
// candidates are judged against. The system package produces it.
type Baseline struct {
	// TotalEnergy is E_0: the whole system's initial energy (µP +
	// caches + memory + bus).
	TotalEnergy units.Energy
	// MuPEnergy is the µP core's share.
	MuPEnergy units.Energy
	// RestEnergy is E_rest: caches + memory + bus.
	RestEnergy units.Energy
	// TotalCycles is the initial execution time.
	TotalCycles int64
	// Regions holds the ISS's per-cluster statistics of the initial run.
	Regions map[int]*iss.RegionStat
	// Micro is the µP model the baseline was measured with.
	Micro *tech.MicroprocessorSpec
	// ICacheAccessEnergy is the per-fetch energy of the instruction
	// cache; moving a cluster to hardware saves one fetch per removed
	// instruction, which the objective function estimates with it.
	ICacheAccessEnergy units.Energy
}

// cumulative aggregates per-region ISS statistics over each region and all
// of its descendants: E_µP,c_i of Fig. 1 line 12 is the energy of *every*
// instruction in the cluster, nested subclusters included (the ISS tags
// instructions with their innermost region only).
func cumulative(regions []*cdfg.Region, flat map[int]*iss.RegionStat) map[int]*iss.RegionStat {
	out := make(map[int]*iss.RegionStat, len(regions))
	for _, r := range regions {
		agg := &iss.RegionStat{}
		r.Walk(func(x *cdfg.Region) {
			s := flat[x.ID]
			if s == nil {
				return
			}
			agg.Instrs += s.Instrs
			agg.Cycles += s.Cycles
			agg.Energy += s.Energy
			for k := range agg.Active {
				agg.Active[k] += s.Active[k]
			}
		})
		out[r.ID] = agg
	}
	return out
}

// SetEval is the evaluation of one (cluster, resource set) pair —
// one iteration of Fig. 1 lines 8-13.
type SetEval struct {
	RS      *tech.ResourceSet
	Err     error // non-nil when the set cannot execute the cluster
	Binding *asic.Binding
	UASIC   float64 // U_R^core of the candidate ASIC implementation
	UMuP    float64 // U_µP^core measured while the µP ran this cluster
	// EASIC is the utilization-based ASIC energy estimate plus transfer
	// energy; EMuPSaved is the µP energy the cluster currently costs.
	EASIC     units.Energy
	EMuPSaved units.Energy
	// EstCycles is the estimated post-partition execution time.
	EstCycles int64
	GEQ       int
	OF        float64
	Eligible  bool
	Reason    string // why ineligible, for the decision trail
}

// Candidate is the decision trail of one cluster.
type Candidate struct {
	Region      *cdfg.Region
	Traffic     Traffic
	MuP         *iss.RegionStat
	Invocations int64
	Score       float64 // pre-selection ranking score
	Preselected bool
	SkipReason  string // why it never became a candidate
	Evals       []*SetEval
}

// Choice is the selected partition.
type Choice struct {
	Region  *cdfg.Region
	RS      *tech.ResourceSet
	Binding *asic.Binding
	Eval    *SetEval
}

// MemoStats reports the effectiveness of an Evaluator's pair cache:
// Binds counts evaluations that scheduled and bound a (cluster, resource
// set) pair from scratch, Hits counts evaluations that reused a cached
// Fig. 4 result and recomputed only the objective-function arithmetic,
// and Pairs counts the distinct pairs cached. The cache never evicts and
// has one writer, so Binds equals Pairs.
type MemoStats struct {
	Binds int
	Hits  int
	Pairs int
}

// HitRate returns Hits/(Hits+Binds), 0 when nothing was evaluated.
func (m MemoStats) HitRate() float64 {
	if m.Hits+m.Binds == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Hits+m.Binds)
}

// Decision is the complete outcome of the partitioning process, including
// the decision trail for every cluster considered.
type Decision struct {
	// Chosen is the first (best) selected implementation, nil when no
	// partition beats the initial design.
	Chosen *Choice
	// Choices lists every selected cluster when Config.MaxCores > 1
	// (Chosen is Choices[0]).
	Choices    []*Choice
	BaselineOF float64
	Candidates []*Candidate
	// Memo reports how often the multi-core rounds reused schedules and
	// bindings instead of recomputing them.
	Memo MemoStats
}

// Partition runs the Fig. 1 process over the program: decompose into
// clusters (the region tree), estimate bus traffic (Fig. 3), pre-select,
// schedule + bind (Fig. 4 via internal/asic) per resource set, evaluate
// the objective function and pick the best implementation.
func Partition(p *cdfg.Program, prof *cdfg.Profile, base *Baseline, cfg Config) (*Decision, error) {
	return PartitionCtx(context.Background(), p, prof, base, cfg) //lint:ctx non-Ctx convenience wrapper
}

// PartitionCtx is Partition with cancellation: ctx is checked before
// every (cluster, resource set) evaluation of the grid, so a cancelled or
// deadline-expired caller (e.g. a served request whose HTTP deadline
// passed) stops the search within one pair and gets ctx.Err().
func PartitionCtx(ctx context.Context, p *cdfg.Program, prof *cdfg.Profile, base *Baseline, cfg Config) (*Decision, error) {
	if prof == nil || base == nil {
		return nil, fmt.Errorf("partition: profile and baseline are required")
	}
	e, err := NewEvaluator(p, prof, cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg
	dec := &Decision{BaselineOF: cfg.F}

	// Steps 1-5: candidate enumeration, Fig. 3 traffic estimates and
	// pre-selection (shared with the DSE explorer via the Evaluator).
	all, pool := e.Candidates(base)
	dec.Candidates = all

	// Steps 6-13, run greedily for up to MaxCores rounds: evaluate each
	// remaining pre-selected cluster on each resource set, keep the
	// minimum-OF implementation if it beats staying all-software (whose
	// objective value is F·E_0/E_0 = F), then repeat with the baseline
	// shifted by the accepted cluster and the synergy discounts enabled
	// for its siblings.
	//
	// The grid is walked in pool order (pre-selection rank), then
	// resource-set index, and the evaluator caches schedules/bindings and
	// their term decompositions across rounds: Fig. 1 lines 8-10 depend
	// only on (cluster, resource set), so rounds >= 2 re-run only the
	// baseline-dependent price tail.
	round := *base
	inHW := make(map[int]bool) // region IDs already in hardware, for the synergy flags
	for core := 0; core < cfg.MaxCores; core++ {
		var best *Choice
		for _, c := range pool {
			if overlapsChosen(c.Region, dec.Choices) {
				continue
			}
			prev, next := siblings(c.Region)
			prevHW := prev != nil && inHW[prev.ID]
			nextHW := next != nil && inHW[next.ID]
			for si := range cfg.ResourceSets {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ev, err := e.Eval(&round, c, si, prevHW, nextHW)
				if err != nil {
					return nil, err // a Config.Verify violation
				}
				if core == 0 {
					c.Evals = append(c.Evals, ev) // the trail shows the first round
				}
				if ev.Eligible && (best == nil || ev.OF < best.Eval.OF) {
					best = &Choice{Region: c.Region, RS: ev.RS, Binding: ev.Binding, Eval: ev}
				}
			}
		}
		if best == nil || best.Eval.OF >= dec.BaselineOF {
			break
		}
		dec.Choices = append(dec.Choices, best)
		inHW[best.Region.ID] = true
		// Shift the running baseline: the accepted cluster's µP share is
		// gone, replaced by its estimated hardware energy and time.
		round.MuPEnergy -= best.Eval.EMuPSaved
		if round.MuPEnergy < 0 {
			round.MuPEnergy = 0
		}
		round.TotalCycles = best.Eval.EstCycles
	}
	if len(dec.Choices) > 0 {
		dec.Chosen = dec.Choices[0]
	}
	dec.Memo = e.MemoStats()
	if cfg.Verify {
		if err := AuditDecision(dec, base, cfg); err != nil {
			return nil, err
		}
	}
	return dec, nil
}

// overlapsChosen reports whether r overlaps a cluster already chosen
// (nested or identical clusters cannot both move to hardware).
func overlapsChosen(r *cdfg.Region, chosen []*Choice) bool {
	for _, ch := range chosen {
		if ch.Region.Overlaps(r) {
			return true
		}
	}
	return false
}

// ineligible explains why a region cannot be moved to an ASIC core.
func ineligible(p *cdfg.Program, prof *cdfg.Profile, r *cdfg.Region) string {
	if r.HasCalls() {
		return "contains calls into software"
	}
	if r.HasReturns() {
		return "contains returns (multiple exits)"
	}
	hasDatapath := false
	for _, op := range r.Ops() {
		if cl, ok := op.Code.Class(); ok && cl != tech.OpMemory {
			hasDatapath = true
			break
		}
	}
	if !hasDatapath {
		return "no datapath operations"
	}
	if prof.RegionEntries(r) == 0 {
		return "never executed in the profiling run"
	}
	return ""
}

// invocationsOf estimates how many times the cluster is invoked (entered
// from outside): the execution count of its unique exit block, which runs
// once per completed invocation.
func invocationsOf(prof *cdfg.Profile, r *cdfg.Region) int64 {
	if exit, err := r.Exit(); err == nil {
		return prof.BlockCount(r.Func, exit)
	}
	return prof.RegionEntries(r)
}

// bindResult is the baseline-independent half of one (cluster, resource
// set) evaluation: Fig. 1 lines 8-10 (list schedule, Fig. 4 binding,
// hardware effort, ASIC-side utilization). It depends only on the cluster,
// the resource set and the static configuration — not on the shifted
// baseline or the synergy flags — so the Evaluator caches it per pair.
type bindResult struct {
	err     error
	reason  string
	binding *asic.Binding
	geq     int
	uASIC   float64
	// verifyErr records a Config.Verify violation found while computing
	// this result; unlike err (a property of the design point, e.g.
	// unschedulable) it aborts the whole Partition call.
	verifyErr error
}

// scheduleBind runs the expensive half: Fig. 1 line 8's list schedule and
// Fig. 4's instance binding.
//
//lint:alloc cold-fill boundary, runs only on a pair-cache miss — the warm EvalInto path (TestEvalIntoZeroAlloc) never enters
func scheduleBind(prof *cdfg.Profile, cfg Config, c *Candidate, rs *tech.ResourceSet) *bindResult {
	br := &bindResult{}
	// Line 8: list schedule.
	rsched, err := sched.ScheduleRegion(sched.Config{Lib: cfg.Lib, RS: rs}, c.Region)
	if err != nil {
		br.err = err
		br.reason = "unschedulable: " + err.Error()
		return br
	}
	if cfg.Verify {
		if err := sched.VerifyIR(rsched); err != nil {
			br.verifyErr = err
			return br
		}
	}
	// Fig. 4: bind, GEQ, U_R.
	binding, err := asic.Bind(rsched, cfg.Lib, func(bid int) int64 {
		return prof.BlockCount(c.Region.Func, bid)
	})
	if err != nil {
		br.err = err
		br.reason = "binding failed: " + err.Error()
		return br
	}
	if cfg.Verify {
		if err := asic.VerifyBinding(binding, cfg.Lib); err != nil {
			br.verifyErr = err
			return br
		}
	}
	br.binding = binding
	br.geq = binding.GEQTotal()
	br.uASIC = utilizationRate(binding, cfg)
	return br
}

// pairTerms is the baseline-independent decomposition of one (cluster,
// resource set, synergy flags) evaluation: everything in Fig. 1 lines
// 8-13 that does not read the (shifted or per-geometry) baseline. The
// only baseline inputs to these terms are the µP model and its clock —
// which every derived baseline shares with the measured one — so the
// Evaluator can price the same terms against many baselines by re-running
// just the cheap tail (price).
type pairTerms struct {
	err    error
	reason string // for err, or a baseline-independent rejection
	// rejected marks a line 9 / GEQ-budget rejection: the pair can never
	// become eligible, against any baseline sharing the µP model.
	rejected bool

	binding      *asic.Binding
	geq          int
	uASIC, uMuP  float64
	easic        units.Energy
	eMuPSaved    units.Energy
	mupCycles    int64
	mupInstrs    int64
	asicMuPCycle int64
	// micro is the µP model the terms were derived with; pricing against
	// a baseline with a different model requires fresh terms.
	micro *tech.MicroprocessorSpec
}

// termsOf computes the baseline-independent half of Fig. 1 lines 8-13 on
// top of a (possibly memoized) schedule+binding. prevHW/nextHW enable
// Fig. 3's synergy discounts (steps 2/4) when the neighbouring sibling
// cluster is already implemented in hardware.
//
//lint:alloc cold-fill boundary, runs only on a term-cache miss — the warm EvalInto path re-prices cached terms without entering here
func termsOf(base *Baseline, cfg Config,
	c *Candidate, rs *tech.ResourceSet, br *bindResult, prevHW, nextHW bool) *pairTerms {
	t := &pairTerms{micro: base.Micro}
	if br.err != nil {
		t.err = br.err
		t.reason = br.reason
		return t
	}
	binding := br.binding
	t.binding = binding
	t.geq = br.geq
	t.uASIC = br.uASIC
	t.uMuP = c.MuP.Utilization(base.Micro)
	if cfg.WeightedU {
		// Apples to apples: when U_R is size-weighted, weight the µP
		// side identically, so only the *relative* values matter — the
		// paper's §3.4 argument for why weighting changes nothing.
		t.uMuP = weightedMuPUtilization(c.MuP, base.Micro, cfg.Lib)
	}

	// Line 9: the cluster must utilize the ASIC core better than the µP.
	if t.uASIC <= t.uMuP {
		t.rejected = true
		t.reason = fmt.Sprintf("U_ASIC %.3f <= U_µP %.3f", t.uASIC, t.uMuP)
		return t
	}
	// Hardware budget (the factor-F rejection of too-expensive cores the
	// paper describes for "trick").
	if t.geq > cfg.GEQBudget {
		t.rejected = true
		t.reason = fmt.Sprintf("hardware effort %d cells exceeds budget %d", t.geq, cfg.GEQBudget)
		return t
	}

	// Lines 11-12: energy estimates, with Fig. 3 steps 2/4 synergy.
	// Beyond Fig. 3's bus energy, every transferred word crosses the
	// shared memory core (paper Fig. 2a steps a-d), and every invocation
	// pays a rendezvous overhead on the µP (trigger plus depositing and
	// reading back the live register state) — without these terms,
	// fine-grained clusters with thousands of invocations look far
	// cheaper than they measure.
	wIn, wOut := c.Traffic.EffectiveWords(prevHW, nextHW)
	perWord := cfg.Lib.Bus.EReadWord + cfg.Lib.Bus.EWriteWord +
		(cfg.Lib.Memory.EReadWord+cfg.Lib.Memory.EWriteWord)/4
	transfers := units.Energy(float64(c.Invocations)*float64(wIn+wOut)) * perWord
	const syncCycles = 24 // trigger + pinned-variable deposit/readback
	syncEnergy := units.Energy(float64(c.Invocations)*syncCycles) *
		base.Micro.BaseEnergy[tech.IClassStore]
	transfers += syncEnergy
	t.easic = binding.EnergySelectionEstimate(cfg.Lib) + transfers
	t.eMuPSaved = c.MuP.Energy
	t.mupCycles = c.MuP.Cycles
	t.mupInstrs = c.MuP.Instrs

	// Execution-time estimate: µP sheds the cluster's cycles, gains the
	// ASIC's (converted to µP clock) plus per-invocation transfer stalls.
	t.asicMuPCycle = int64(float64(binding.NcycWeighted)*float64(binding.Clock)/float64(base.Micro.ClockPeriod)) +
		int64(cfg.Lib.Memory.LatencyCycles)*int64(wIn+wOut)*c.Invocations +
		syncCycles*c.Invocations
	return t
}

// price runs the baseline-dependent tail of Fig. 1 lines 8-13 — the only
// arithmetic that reads the shifted/per-geometry baseline — writing the
// evaluation into out (which is fully overwritten; a warm caller can
// reuse one SetEval without allocating). The expression tree is the exact
// tail of the original single-pass evaluation, so a priced SetEval is
// byte-identical to a from-scratch one.
func (t *pairTerms) price(base *Baseline, cfg Config, rs *tech.ResourceSet, out *SetEval) {
	*out = SetEval{RS: rs}
	if t.err != nil {
		out.Err = t.err
		out.Reason = t.reason
		return
	}
	out.Binding = t.binding
	out.GEQ = t.geq
	out.UASIC = t.uASIC
	out.UMuP = t.uMuP
	if t.rejected {
		out.Reason = t.reason
		return
	}
	out.EASIC = t.easic
	out.EMuPSaved = t.eMuPSaved
	out.EstCycles = base.TotalCycles - t.mupCycles + t.asicMuPCycle
	if out.EstCycles < 1 {
		out.EstCycles = 1
	}

	// Line 13: objective function
	//   OF = F · (E_R + E_µP + E_rest)/E_0 + w_hw·GEQ/budget + w_t·slowdown.
	// E_rest is refined by the fetch energy the removed instructions no
	// longer draw from the i-cache (footnote 2's partition-dependent
	// cache behaviour, in estimate form).
	restAfter := base.RestEnergy - units.Energy(float64(t.mupInstrs))*base.ICacheAccessEnergy
	if restAfter < 0 {
		restAfter = 0
	}
	eAfter := float64(base.MuPEnergy-out.EMuPSaved) + float64(out.EASIC) + float64(restAfter)
	slowdown := float64(out.EstCycles)/float64(base.TotalCycles) - 1
	if slowdown < 0 {
		slowdown = 0
	}
	out.OF = cfg.F*eAfter/float64(base.TotalEnergy) +
		HardwareWeight*float64(out.GEQ)/float64(cfg.GEQBudget) +
		TimeWeight*slowdown
	out.Eligible = true
}

// evaluate runs the cheap half of Fig. 1 lines 8-13 for one (cluster,
// resource set) pair on top of a schedule+binding in a single pass:
// eligibility, energy estimates and the objective function — the
// decomposition (termsOf) followed by the baseline-dependent tail
// (price), with nothing cached. It is the reference the Evaluator's
// cached terms must reproduce bit for bit.
func evaluate(base *Baseline, cfg Config,
	c *Candidate, rs *tech.ResourceSet, br *bindResult, prevHW, nextHW bool) *SetEval {
	ev := &SetEval{}
	termsOf(base, cfg, c, rs, br, prevHW, nextHW).price(base, cfg, rs, ev)
	return ev
}

// utilizationRate returns Eq. 4's U_R, optionally size-weighted (ablation
// A4: "all resources contribute to U_R in the same way, no matter whether
// they are large or small ... an according distinction does not result in
// better partitions").
func utilizationRate(b *asic.Binding, cfg Config) float64 {
	if !cfg.WeightedU {
		return b.URate
	}
	if b.NcycWeighted == 0 || len(b.Instances) == 0 {
		return 0
	}
	num, den := 0.0, 0.0
	for _, in := range b.Instances {
		w := float64(cfg.Lib.Resource(in.Kind).GEQ)
		num += w * float64(in.ActiveWeighted) / float64(b.NcycWeighted)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// weightedMuPUtilization is the GEQ-weighted counterpart of
// iss.RegionStat.Utilization for ablation A4.
func weightedMuPUtilization(st *iss.RegionStat, m *tech.MicroprocessorSpec, lib *tech.Library) float64 {
	if st.Cycles == 0 {
		return 0
	}
	num, den := 0.0, 0.0
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		if m.CoreResources[k] == 0 {
			continue
		}
		w := float64(lib.Resource(k).GEQ * m.CoreResources[k])
		u := float64(st.Active[k]) / float64(st.Cycles)
		if u > 1 {
			u = 1
		}
		num += w * u
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Trail renders the decision process as text for cmd/lppart.
func (d *Decision) Trail() string {
	var sb strings.Builder
	for _, c := range d.Candidates {
		fmt.Fprintf(&sb, "cluster %-28s", c.Region.Label)
		if c.SkipReason != "" {
			fmt.Fprintf(&sb, " skipped: %s\n", c.SkipReason)
			continue
		}
		fmt.Fprintf(&sb, " in=%dw out=%dw E_trans=%v invocations=%d score=%.3g\n",
			c.Traffic.WordsIn, c.Traffic.WordsOut, c.Traffic.Energy, c.Invocations, c.Score)
		for _, ev := range c.Evals {
			fmt.Fprintf(&sb, "    %-10s", ev.RS.Name)
			if ev.Err != nil {
				fmt.Fprintf(&sb, " %s\n", ev.Reason)
				continue
			}
			fmt.Fprintf(&sb, " U_ASIC=%.3f U_µP=%.3f GEQ=%d", ev.UASIC, ev.UMuP, ev.GEQ)
			if !ev.Eligible {
				fmt.Fprintf(&sb, " rejected: %s\n", ev.Reason)
				continue
			}
			fmt.Fprintf(&sb, " E_ASIC=%v OF=%.4f\n", ev.EASIC, ev.OF)
		}
	}
	if d.Chosen != nil {
		fmt.Fprintf(&sb, "CHOSEN: %s on %s (OF %.4f vs baseline %.4f, %d cells)\n",
			d.Chosen.Region.Label, d.Chosen.RS.Name, d.Chosen.Eval.OF, d.BaselineOF,
			d.Chosen.Eval.GEQ)
	} else {
		fmt.Fprintf(&sb, "CHOSEN: none (no candidate beat the initial design, baseline OF %.4f)\n", d.BaselineOF)
	}
	return sb.String()
}
