// Package dse explores the joint hardware/software design space the
// paper's Fig. 1 loop walks only greedily: which clusters move to ASIC
// cores, on which resource sets, combined with which cache geometries
// ("those other cores have to be adapted efficiently (e.g. size of
// memory, size of caches, cache policy etc.) according to the particular
// hw/sw partitioning chosen", §1). Instead of a single minimum-OF
// choice, Explore returns the Pareto frontier over {total energy,
// execution cycles, GEQ hardware effort}.
//
// The search is a deterministic branch-and-bound: per cache geometry, a
// serial depth-first enumeration of cluster subsets (in Fig. 3
// pre-selection rank order, region-overlap exclusion applied) times
// per-cluster resource sets, pruned with an admissible lower bound built
// from the Fig. 3 bus-traffic score — a cluster's energy delta can never
// be better than -(Score + removed-fetches·i-cache access energy),
// because its ASIC estimate always pays at least the Fig. 3 bus
// transfers, and its cycle delta never better than -(its µP cycles).
// Subtrees whose bound is weakly dominated by an already-found point
// cannot contribute to the frontier and are cut.
//
// Determinism is by construction, like everywhere else in this repo:
// every geometry's grid is priced serially, then the geometries' searches
// fan out on an explore.MapCtx pool and each search is serial, so the
// frontier is byte-identical at any worker count. All geometries share
// one partition.Evaluator, whose pair cache makes every (cluster,
// resource set) pair pay the expensive Fig. 1 lines 8-10 once across the
// whole exploration; the cache geometries themselves are
// profiled online during the one ISS run of the initial design by the
// single-pass stack-distance profiler (trace.Profiler), not by
// re-simulating the program per geometry.
package dse

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/explore"
	"lppart/internal/partition"
	"lppart/internal/system"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// DefaultMaxHW is the pick budget of a Config or milp.Config whose MaxHW
// is 0.
const DefaultMaxHW = 2

// Config parameterizes one exploration.
type Config struct {
	// Sys carries the measurement and partitioning knobs (the same
	// configuration system.Evaluate takes); Sys.ICache/DCache anchor the
	// measured baseline the per-geometry baselines are derived from.
	// Sys.Store must be nil: Prepare rejects it, the store is Store's.
	Sys system.Config
	// Geometries are the (i-cache, d-cache) pairs to explore; nil selects
	// DefaultGeometries(). Data caches are forced to write-back.
	Geometries [][2]cache.Config
	// MaxHW bounds how many clusters one configuration may move to
	// hardware (the N of Eq. 3). 0 means DefaultMaxHW.
	MaxHW int
	// Workers bounds how many geometries ExplorePrep searches at once
	// (<= 0: one per CPU); Prepare's measurement is one ISS run and
	// ignores it. The frontier is byte-identical at any worker count.
	Workers int
	// DisableBound turns branch-and-bound pruning off (exhaustive
	// enumeration) — the differential-testing oracle for the bound's
	// admissibility and the denominator of the pruning-rate measurements.
	DisableBound bool
	// ExactBound prunes with the exact floors: each bound query's
	// cardinality/overlap subproblem solved exactly, per-branch floors
	// and option-dominance cuts (see floors). It applies to pools of at
	// most 24 clusters; larger pools keep the default suffix-sum floors.
	// The frontier is byte-identical either way; only the search
	// counters move.
	ExactBound bool
	// Store, when non-nil, persists the measurement phase (the
	// initial-design record system.EvaluateIRCtx shares, plus the
	// geometry sweep; see system.Measure): a warm run skips the ISS and
	// the sweep entirely and produces a byte-identical frontier. Verify
	// mode bypasses the store — an audit must exercise the full live
	// flow. Never assign it a nil *memostore.Store: the typed nil is a
	// non-nil Store.
	Store system.Store
	// OnProgress, when set, is called after each geometry finishes with
	// (completed, total) counts. It may be called concurrently.
	OnProgress func(done, total int)
}

// DefaultGeometries returns the explored cache grid: the reference
// geometry plus halved i-cache, halved d-cache, and both halved — the
// four corners of the "can a smaller memory subsystem ride on the
// partition's cache-relief" question.
func DefaultGeometries() [][2]cache.Config {
	i, d := cache.DefaultICache(), cache.DefaultDCache()
	ih, dh := i, d
	ih.Sets /= 2
	dh.Sets /= 2
	return [][2]cache.Config{{i, d}, {ih, d}, {i, dh}, {ih, dh}}
}

// Pick is one cluster→hardware assignment inside a Point.
type Pick struct {
	Region   int     `json:"region"` // cdfg region ID
	Label    string  `json:"label"`
	Set      string  `json:"set"` // resource-set name
	SetIndex int     `json:"set_index"`
	GEQ      int     `json:"geq"`
	OF       float64 `json:"of"` // the pick's own Fig. 1 objective value
}

// Point is one non-dominated configuration of the design space.
type Point struct {
	ID       int          `json:"id"`
	ICache   cache.Config `json:"icache"`
	DCache   cache.Config `json:"dcache"`
	Clusters []Pick       `json:"clusters,omitempty"` // empty: all-software
	// The objectives, minimized jointly.
	Energy units.Energy `json:"energy"`
	Cycles int64        `json:"cycles"`
	GEQ    int          `json:"geq"`
	// Ratios against the point's own geometry baseline (all-software on
	// the same caches): EnergyRatio < 1 means the partition saves energy.
	EnergyRatio float64 `json:"energy_ratio"`
	CycleRatio  float64 `json:"cycle_ratio"`

	// Decision is the full Fig. 1 decision trail reconstructing this
	// point, auditable with partition.AuditDecision against Baseline.
	// Both are excluded from JSON (the trail is large); API consumers
	// get the Picks.
	Decision *partition.Decision `json:"-"`
	Baseline *partition.Baseline `json:"-"`

	// Key is the deterministic tie-break (geometry dims + ordered picks)
	// the DESIGN.md §7 dominance ordering breaks exact objective ties
	// on. It stays on the wire because every explore and exact response
	// body already carries it: dropping it would change those bytes.
	Key string `json:"key,omitempty"`
}

// Stats counts the search's work. Configs, Pruned and PairEvals are
// deterministic at any worker count (each geometry's search is serial),
// and so are MemoAdds and MemoSize: both are the number of distinct pairs
// the evaluator cached. The evaluator's bind/hit split is deterministic
// too (the grids are priced serially), but it stays out of Stats so the
// explore and exact response bodies keep their bytes.
type Stats struct {
	Geometries int   `json:"geometries"`
	Configs    int64 `json:"configs"`    // configurations evaluated (search-tree nodes)
	Pruned     int64 `json:"pruned"`     // subtrees cut by the lower bound
	PairEvals  int64 `json:"pair_evals"` // objective evaluations of (cluster, set) pairs
	MemoAdds   int64 `json:"memo_adds"`  // distinct (cluster, set) pairs bound
	MemoSize   int   `json:"memo_size"`
}

// Frontier is the outcome of one exploration: the non-dominated points
// in ascending-energy order, each carrying its auditable decision trail.
type Frontier struct {
	App    string  `json:"app"`
	Points []Point `json:"points"`
	Stats  Stats   `json:"stats"`
}

// Prep is the measured, priced half of an exploration: the application
// profiled and run on the ISS once, every cache geometry profiled during
// that single run and priced into its own all-software baseline, and one
// shared Evaluator (one pair cache) ready to price (cluster, resource
// set) pairs against any of those baselines. A Prep feeds both the
// Pareto search (ExplorePrep) and the exact solver (internal/milp), so
// the two provably price the same design space from the same floats.
// Like its Evaluator, a Prep is not safe for concurrent use.
type Prep struct {
	IR *cdfg.Program
	// Delta is the shared Evaluator: after the first geometry binds and
	// decomposes a pair, every other geometry re-runs only the cheap
	// baseline-dependent price tail.
	Delta *partition.Evaluator
	// Geoms[i] is priced against Bases[i]. Geoms excludes the anchor
	// unless it is itself an explored geometry (the default grid's first
	// entry is the anchor pair).
	Geoms [][2]cache.Config
	Bases []*partition.Baseline
}

// Prepare measures the application once (profile, then one ISS run of
// the initial design with the online cache profiler observing it),
// prices every cache geometry from that run's profile, and derives each
// geometry's all-software baseline. No reference trace is recorded. With
// a store attached, a previous run's measurement is replayed instead
// (bit-identical records, so every downstream result is byte-identical
// to a cold run's). The geometry set is fixed here; ExplorePrep ignores
// cfg.Geometries.
func Prepare(ctx context.Context, ir *cdfg.Program, cfg Config) (*Prep, error) {
	geoms := make([][2]cache.Config, 0, len(cfg.Geometries))
	if cfg.Geometries == nil {
		geoms = DefaultGeometries()
	} else {
		geoms = append(geoms, cfg.Geometries...)
	}
	if len(geoms) == 0 {
		return nil, fmt.Errorf("dse: no geometries to explore")
	}
	for gi := range geoms {
		geoms[gi][1].WriteBack = true
		if err := geoms[gi][0].Validate(); err != nil {
			return nil, fmt.Errorf("dse: geometry %d i-cache: %w", gi, err)
		}
		if err := geoms[gi][1].Validate(); err != nil {
			return nil, fmt.Errorf("dse: geometry %d d-cache: %w", gi, err)
		}
	}

	// One library for the key, the records and the baselines; the
	// exploration's store, not Sys.Store, holds the records.
	if cfg.Sys.Store != nil {
		return nil, fmt.Errorf("dse: Config.Sys.Store is set; an exploration's records go to Config.Store")
	}
	sys := cfg.Sys
	sys.Store = cfg.Store
	if sys.Part.Lib == nil {
		sys.Part.Lib = tech.Default()
	}
	lib := sys.Part.Lib
	anchorI, anchorD := cfg.Sys.ICache, cfg.Sys.DCache
	if anchorI.Sets == 0 {
		anchorI = cache.DefaultICache()
	}
	if anchorD.Sets == 0 {
		anchorD = cache.DefaultDCache()
	}
	pairs := append([][2]cache.Config{{anchorI, anchorD}}, geoms...)

	// Measure once: ONE ISS execution of the initial all-software design
	// on the anchor geometry with the online cache profiler teed into the
	// memory system, yielding the block profile, the measured baseline
	// and every geometry's report; the reference stream is never
	// stored. With a store attached, a previous run's measurement is
	// replayed instead (bit-identical records, so the frontier is
	// byte-identical to a cold run's).
	m, reps, err := system.Measure(ctx, ir, sys, pairs)
	if err != nil {
		return nil, err
	}
	anchor, reps := reps[0], reps[1:]
	base := m.Base
	emup, initCycles := m.Initial.EMuP, m.Initial.TotalCycles()

	// One evaluator — one pair cache — for every geometry and subtree:
	// geometries differ only in their baseline, so after the first
	// geometry decomposes a (cluster, resource set) pair, every other
	// geometry re-runs just the cheap baseline-dependent price tail.
	pe, err := partition.NewEvaluator(ir, m.Profile, cfg.Sys.Part)
	if err != nil {
		return nil, err
	}

	// Each geometry's all-software baseline, derived from the anchor
	// measurement: swap the memory subsystem's energy for the swept one,
	// and shift cycles by the stall delta between geometries.
	bases := make([]*partition.Baseline, len(geoms))
	for gi, g := range geoms {
		gbase := &partition.Baseline{
			MuPEnergy:          emup,
			RestEnergy:         reps[gi].Total(),
			TotalEnergy:        emup + reps[gi].Total(),
			TotalCycles:        initCycles - anchor.Stalls + reps[gi].Stalls,
			Regions:            base.Regions,
			Micro:              base.Micro,
			ICacheAccessEnergy: g[0].AccessEnergy(lib.Cache),
		}
		if gbase.TotalCycles < 1 {
			gbase.TotalCycles = 1
		}
		bases[gi] = gbase
	}
	return &Prep{IR: ir, Delta: pe, Geoms: geoms, Bases: bases}, nil
}

// Explore measures the application once (Prepare), then runs the
// branch-and-bound subset search per geometry and merges the
// per-geometry frontiers into one Pareto set (ExplorePrep).
func Explore(ctx context.Context, ir *cdfg.Program, cfg Config) (*Frontier, error) {
	p, err := Prepare(ctx, ir, cfg)
	if err != nil {
		return nil, err
	}
	return ExplorePrep(ctx, p, cfg)
}

// ExplorePrep runs the Pareto search over an already-prepared
// measurement. The geometry set comes from the Prep (cfg.Geometries is
// ignored here); the partitioning knobs, pick budget, bound choice
// and worker count come from cfg.
func ExplorePrep(ctx context.Context, p *Prep, cfg Config) (*Frontier, error) {
	if cfg.MaxHW <= 0 {
		cfg.MaxHW = DefaultMaxHW
	}
	if cfg.Workers <= 0 {
		cfg.Workers = explore.DefaultWorkers()
	}
	pcfg := p.Delta.Config()

	// Price every geometry's grid serially, in geometry order: the
	// evaluator's pair cache has one writer, and the fan-out below only
	// reads the finished grids.
	grids := make([]*Grid, len(p.Geoms))
	for gi := range p.Geoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if grids[gi], err = NewGrid(p.Delta, p.Bases[gi]); err != nil {
			return nil, err
		}
	}

	total := len(p.Geoms)
	var done atomic.Int64
	results, err := explore.MapCtx(ctx, cfg.Workers, p.Geoms, func(gi int, g [2]cache.Config) (*geoResult, error) {
		res, err := searchGeometry(ctx, grids[gi], pcfg, p.Bases[gi], g, &cfg)
		if err != nil {
			return nil, err
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(int(done.Add(1)), total)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	st := Stats{Geometries: len(p.Geoms)}
	var all []Point
	for _, r := range results {
		all = append(all, r.points...)
		st.Configs += r.configs
		st.Pruned += r.pruned
		st.PairEvals += r.pairEvals
	}
	pts := reduce(all)
	for i := range pts {
		pts[i].ID = i
	}
	ms := p.Delta.MemoStats()
	st.MemoAdds, st.MemoSize = int64(ms.Pairs), ms.Pairs

	f := &Frontier{App: p.IR.Name, Points: pts, Stats: st}
	if pcfg.Verify {
		if err := f.Audit(pcfg); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Audit runs partition.AuditDecision on every point's decision trail
// against its own geometry baseline.
func (f *Frontier) Audit(pcfg partition.Config) error {
	for i := range f.Points {
		p := &f.Points[i]
		if p.Decision == nil || p.Baseline == nil {
			return fmt.Errorf("dse: point %d has no decision trail", p.ID)
		}
		if err := partition.AuditDecision(p.Decision, p.Baseline, pcfg); err != nil {
			return fmt.Errorf("dse: point %d: %w", p.ID, err)
		}
	}
	return nil
}

// geoResult is one geometry's locally-reduced frontier plus its search
// counters.
type geoResult struct {
	points                     []Point
	configs, pruned, pairEvals int64
}

// searchGeometry runs the serial branch-and-bound over (cluster subset ×
// per-cluster resource set) for one cache geometry's priced grid. It only
// reads the grid, so geometries search concurrently.
func searchGeometry(ctx context.Context, grid *Grid, pcfg partition.Config, gbase *partition.Baseline,
	g [2]cache.Config, cfg *Config) (*geoResult, error) {
	pool, evals, viable := grid.Pool, grid.Evals, grid.Viable
	res := &geoResult{pairEvals: int64(len(pool) * len(pcfg.ResourceSets))}
	t0 := gbase.TotalCycles
	fl := newFloors(grid, gbase, cfg.ExactBound && !cfg.DisableBound && len(pool) <= 24)

	// obj is one point in objective space; front holds the non-dominated
	// objectives found so far in THIS geometry, used for pruning.
	type obj struct {
		e float64
		c int64
		g int
	}
	var front []obj
	dominated := func(p obj) bool {
		for _, f := range front {
			if f.e <= p.e && f.c <= p.c && f.g <= p.g {
				return true
			}
		}
		return false
	}
	push := func(p obj) {
		kept := front[:0]
		for _, f := range front {
			if !(p.e <= f.e && p.c <= f.c && p.g <= f.g) {
				kept = append(kept, f)
			}
		}
		front = append(kept, p)
	}

	// Configuration state lives in a partition.Priced: the DFS's
	// parent→child edges are one-cluster splices (Add on descend, Remove
	// on return restores the exact parent snapshot), so every
	// configuration's floats are computed by the same path-order
	// expression tree as passing the accumulators down functionally.
	pr := partition.NewPriced(gbase)
	point := func() obj {
		e, c, g := pr.Point()
		return obj{e: e, c: c, g: g}
	}
	type pathEl struct {
		j, si int
		ev    *partition.SetEval
	}
	// Depth is bounded by the pool (one pick per region), so one up-front
	// allocation serves every push/pop of the DFS.
	path := make([]pathEl, 0, len(pool))
	// picked holds the path's pool indices, and the exact floors' own
	// picks in its spare capacity.
	picked := make([]int, 0, len(pool))
	// bounded reports whether no extension drawing clusters from pool[i:]
	// can reach a non-dominated point. The bound under-approximates every
	// reachable objective (clamping only raises the real values), so a
	// dominated bound proves the whole subtree dominated — admissible
	// pruning, verified differentially against DisableBound. The exact
	// floors additionally bound single branches (first pick = j).
	bounded := func(i int, branch bool) bool {
		if cfg.DisableBound || (branch && !fl.exact) {
			return false
		}
		floor := fl.level
		if branch {
			floor = fl.branch
		}
		dE, dC, dG := floor(i, cfg.MaxHW-len(path), picked)
		e, c, g := pr.LowerBound(dE, dC, dG)
		return dominated(obj{e: e, c: c, g: g})
	}
	record := func(o obj) {
		if dominated(o) {
			return // transitively dominated — can never reach the frontier
		}
		push(o)
		picks := make([]Pick, len(path))                                               //lint:alloc only for a point that survives the dominance filter
		key := fmt.Sprintf("%d/%d/%d|%d/%d/%d", g[0].Sets, g[0].Assoc, g[0].LineWords, //lint:alloc only for a point that survives the dominance filter
			g[1].Sets, g[1].Assoc, g[1].LineWords)
		// The point's Fig. 1 decision trail, auditable against gbase: its
		// choices in (OF, region) order, the best one Chosen.
		dec := &partition.Decision{BaselineOF: pcfg.F, Candidates: grid.All} //lint:alloc only for a point that survives the dominance filter
		for i, el := range path {
			c := pool[el.j]
			picks[i] = Pick{
				Region: c.Region.ID, Label: c.Region.Label,
				Set: el.ev.RS.Name, SetIndex: el.si,
				GEQ: el.ev.GEQ, OF: el.ev.OF,
			}
			key += fmt.Sprintf("|r%ds%d", picks[i].Region, el.si) //lint:alloc only for a point that survives the dominance filter
			dec.Choices = append(dec.Choices, &partition.Choice{  //lint:alloc only for a point that survives the dominance filter
				Region: c.Region, RS: el.ev.RS, Binding: el.ev.Binding, Eval: el.ev,
			})
		}
		sort.Slice(dec.Choices, func(a, b int) bool { //lint:alloc only for a point that survives the dominance filter
			if dec.Choices[a].Eval.OF != dec.Choices[b].Eval.OF {
				return dec.Choices[a].Eval.OF < dec.Choices[b].Eval.OF
			}
			return dec.Choices[a].Region.ID < dec.Choices[b].Region.ID
		})
		if len(dec.Choices) > 0 {
			dec.Chosen = dec.Choices[0]
		}
		base := pr.MuPE + pr.RestE
		res.points = append(res.points, Point{
			ICache: g[0], DCache: g[1], Clusters: picks,
			Energy: units.Energy(o.e), Cycles: o.c, GEQ: o.g,
			EnergyRatio: o.e / base,
			CycleRatio:  float64(o.c) / float64(t0),
			Decision:    dec,
			Baseline:    gbase,
			Key:         key,
		})
	}

	// The empty subset — pure cache tuning, no hardware — is a valid
	// configuration and seeds the pruning frontier.
	record(point())

	var walk func(i int) error
	walk = func(i int) error { //lint:hotpath the branch-and-bound DFS body

		if err := ctx.Err(); err != nil {
			return err
		}
		if len(path) >= cfg.MaxHW {
			return nil
		}
		for j := i; j < len(pool); j++ {
			// The bound tightens as j advances (the suffix shrinks), so
			// one dominated bound cuts the rest of this level too.
			if bounded(j, false) {
				res.pruned++
				return nil
			}
			if grid.clashes(picked, j) {
				continue
			}
			if len(viable[j]) > 0 && bounded(j, true) {
				res.pruned++
				continue
			}
			for _, si := range viable[j] {
				if fl.cut[[2]int{j, si}] {
					res.pruned++
					continue
				}
				ev := evals[j][si]
				res.configs++
				path = append(path, pathEl{j, si, ev})
				picked = append(picked, j)
				pr.Add(pool[j], ev)
				record(point())
				if err := walk(j + 1); err != nil {
					return err
				}
				pr.Remove()
				path, picked = path[:len(path)-1], picked[:len(picked)-1]
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	// Local reduction before the merge keeps the cross-geometry set small.
	res.points = reduce(res.points)
	return res, nil
}

// reduce sorts points by (Energy, Cycles, GEQ, Key) and filters every
// point weakly dominated by an earlier survivor — the DESIGN.md §7
// dominance ordering. Ties on all three objectives keep the smallest
// Key, so the outcome is a pure function of the point multiset.
func reduce(all []Point) []Point {
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.Energy != b.Energy {
			return a.Energy < b.Energy
		}
		if a.Cycles != b.Cycles {
			return a.Cycles < b.Cycles
		}
		if a.GEQ != b.GEQ {
			return a.GEQ < b.GEQ
		}
		return a.Key < b.Key
	})
	var out []Point
	for _, p := range all {
		dom := false
		for i := range out {
			q := &out[i]
			if q.Energy <= p.Energy && q.Cycles <= p.Cycles && q.GEQ <= p.GEQ {
				dom = true
				break
			}
		}
		if !dom {
			out = append(out, p)
		}
	}
	return out
}
