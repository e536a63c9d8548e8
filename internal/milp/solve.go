package milp

import (
	"context"
	"sync/atomic"

	"lppart/internal/cache"
	"lppart/internal/dse"
	"lppart/internal/explore"
	"lppart/internal/scratch"
	"lppart/internal/units"
)

// Config parameterizes one exact solve.
type Config struct {
	// MaxHW bounds how many clusters one configuration may move to
	// hardware, mirroring dse.Config.MaxHW. 0 means dse.DefaultMaxHW.
	MaxHW int
	// Workers bounds the geometry fan-out (<= 0: one per CPU). Results
	// are byte-identical at any worker count: each geometry's solve is
	// serial and the fan-out preserves input order.
	Workers int
	// Certificate records the bound trail — every expanded and pruned
	// node — so Check can replay the proof with no trust in the solver.
	Certificate bool
	// OnProgress, when set, is called after each geometry finishes with
	// (completed, total) counts. It may be called concurrently.
	OnProgress func(done, total int)
}

// Pick is one cluster→hardware assignment of an optimal configuration,
// the explorer's pick.
type Pick = dse.Pick

// SolveStats counts one instance solve's work.
type SolveStats struct {
	Nodes    int64 `json:"nodes"`    // configurations priced (search-tree nodes)
	Expanded int64 `json:"expanded"` // nodes whose children were generated
	Pruned   int64 `json:"pruned"`   // subtrees cut by the relaxation bound
	// Proven reports a completed proof: OF is the global minimum. Every
	// returned solve runs to completion (a cancelled one returns an
	// error instead), so it is always true.
	Proven bool `json:"proven"`
	// Bound is the certified global lower bound, always equal to OF.
	Bound float64 `json:"bound"`
}

// Optimum is the provably minimal configuration of one instance.
type Optimum struct {
	App    string          `json:"app,omitempty"`
	Geom   [2]cache.Config `json:"geom"`
	OF     float64         `json:"of"`
	Picks  []Pick          `json:"picks"` // empty: all-software is optimal
	Energy units.Energy    `json:"energy"`
	Cycles int64           `json:"cycles"`
	GEQ    int             `json:"geq"`
	Stats  SolveStats      `json:"stats"`

	// Cert is the bound trail (Config.Certificate), Inst the instance it
	// proves against; both excluded from JSON rendering by callers that
	// only need the table.
	Cert *Certificate `json:"cert,omitempty"`
	Inst *Instance    `json:"-"`
}

// pick is the compact (cluster index, option index) pair.
type pick struct{ j, oi int }

// pickOf returns the optimum's record of pick p.
func (in *Instance) pickOf(p pick) Pick {
	cl := &in.Clusters[p.j]
	o := &cl.Options[p.oi]
	return Pick{Region: cl.Region, Label: cl.Label, Set: o.Set, SetIndex: o.SetIndex, GEQ: o.GEQ, OF: o.OF}
}

// lexLess orders pick sequences: elementwise by (j, oi), a strict
// prefix first. The canonical tie-break when two configurations price
// to the same objective.
func lexLess(a, b []pick) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			if a[i].j != b[i].j {
				return a[i].j < b[i].j
			}
			return a[i].oi < b[i].oi
		}
	}
	return len(a) < len(b)
}

// node is one open subproblem: the configuration picked so far plus the
// suffix Clusters[next:] it may still draw from. The pick sequence is not
// stored: a node keeps its own last pick and its parent's slab index, and
// workspace.picksOf rebuilds the sequence where it is read.
type node struct {
	bound  float64
	f      frame
	next   int
	parent int32 // slab index of the parent node; -1 at the root
	depth  int32 // picks made so far
	last   pick  // the pick that created this node; unset at the root
}

// trailNode is one certificate trail entry in compact form: the
// node's subproblem as its last pick plus its parent's slab index (every
// parent was expanded, so it is in the slab), and the recorded value —
// the objective of an expanded node, the bound of a pruned one.
type trailNode struct {
	value  float64
	parent int32 // slab index of the parent node; -1 at the root
	depth  int32
	next   int
	last   pick
	pruned bool
}

// workspace is one solve's search storage. Queued nodes live by value in
// slab, in queue order, so a node's slab index is its creation order —
// the deterministic heap tie-break. open is a best-first min-heap of slab
// indices on (bound, index); path is the scratch buffer workspace.picksOf
// fills, best the incumbent's pick sequence, and trail the certificate's
// expanded and pruned nodes in recording order. Workspaces are recycled
// through workspaces, so repeat solves allocate per solve, not per node.
// Every field is reset before use, so recycling cannot affect results.
type workspace struct {
	slab  []node
	open  []int32
	path  []pick
	best  []pick
	trail []trailNode
}

var workspaces = scratch.Pool[workspace]{New: func() *workspace { return new(workspace) }}

// reset empties the workspace for a solve of at most maxPicks picks.
func (ws *workspace) reset(maxPicks int) {
	ws.slab = ws.slab[:0]
	ws.open = ws.open[:0]
	ws.best = ws.best[:0]
	ws.trail = ws.trail[:0]
	if cap(ws.path) < maxPicks {
		ws.path = make([]pick, maxPicks) //lint:alloc buffer growth to the high-water mark, then reused
	}
	if cap(ws.best) < maxPicks {
		ws.best = make([]pick, 0, maxPicks) //lint:alloc buffer growth to the high-water mark, then reused
	}
}

// picksOf rebuilds nd's pick sequence by following its parent links. The
// result aliases the workspace's scratch buffer: it is valid until the
// next call.
func (ws *workspace) picksOf(nd *node) []pick {
	p := ws.path[:nd.depth]
	for i := len(p) - 1; i >= 0; i-- {
		p[i] = nd.last
		nd = &ws.slab[nd.parent]
	}
	return p
}

// record appends nd to the certificate trail with its recorded value.
func (ws *workspace) record(nd *node, value float64, pruned bool) {
	ws.trail = append(ws.trail, trailNode{ //lint:alloc amortized trail growth, reused across solves
		value: value, parent: nd.parent, depth: nd.depth, next: nd.next, last: nd.last, pruned: pruned,
	})
}

// queue copies nd into the slab and pushes its index on the heap.
func (ws *workspace) queue(nd *node) {
	ws.slab = append(ws.slab, *nd)                   //lint:alloc amortized slab growth, reused across solves
	ws.open = append(ws.open, int32(len(ws.slab)-1)) //lint:alloc amortized heap growth, reused across solves
	ws.up(len(ws.open) - 1)
}

// pop removes and returns the heap's minimum slab index.
func (ws *workspace) pop() int32 {
	n := len(ws.open) - 1
	ws.open[0], ws.open[n] = ws.open[n], ws.open[0]
	ws.down(0, n)
	i := ws.open[n]
	ws.open = ws.open[:n]
	return i
}

// less orders heap positions a and b on (bound, slab index).
func (ws *workspace) less(a, b int) bool {
	x, y := ws.open[a], ws.open[b]
	if ws.slab[x].bound != ws.slab[y].bound {
		return ws.slab[x].bound < ws.slab[y].bound
	}
	return x < y
}

// up and down are container/heap's sift operations over the index heap.
func (ws *workspace) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !ws.less(j, i) {
			break
		}
		ws.open[i], ws.open[j] = ws.open[j], ws.open[i]
		j = i
	}
}

func (ws *workspace) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && ws.less(j2, j) {
			j = j2 // the smaller child
		}
		if !ws.less(j, i) {
			break
		}
		ws.open[i], ws.open[j] = ws.open[j], ws.open[i]
		i = j
	}
}

// SolveInstance runs the serial best-first branch-and-bound to the
// provable minimum of one instance. Only cfg.Certificate is read here;
// fan-out and MaxHW belong to the instance/driver.
//
//lint:hotpath the best-first expansion loop; allocates per solve, not per node
func SolveInstance(ctx context.Context, in *Instance, cfg Config) (*Optimum, error) {
	if err := in.forest(); err != nil {
		return nil, err
	}
	n := len(in.Clusters)
	maxPicks := in.maxPicks()
	r := newRelaxation(in)
	st := SolveStats{}
	rec := cfg.Certificate
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	ws.reset(maxPicks)

	// The incumbent starts at the empty (all-software) configuration —
	// always feasible, objective F when E_0 = µP+rest exactly.
	bestOF := in.objective(frame{})
	st.Nodes = 1

	// consider bounds a fresh node and either queues it or records the
	// prune. Nodes that cannot have children (pick budget exhausted or
	// suffix empty) need no record: their own configuration was already
	// priced against the incumbent.
	consider := func(nd *node) {
		if int(nd.depth) >= maxPicks || nd.next >= n {
			return
		}
		nd.bound = r.bound(nd.f, nd.next, int(nd.depth))
		if nd.bound >= bestOF {
			st.Pruned++
			if rec {
				ws.record(nd, nd.bound, true)
			}
			return
		}
		ws.queue(nd)
	}
	root := node{parent: -1}
	consider(&root)

	for len(ws.open) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := ws.pop()
		// A copy: queueing children below may move the slab.
		nd := ws.slab[idx]
		if nd.bound >= bestOF {
			// The incumbent improved since this node was queued. The heap
			// is bound-ordered, so every remaining open node is proven
			// dominated too: drain them all into the certificate.
			st.Pruned++
			if rec {
				ws.record(&nd, nd.bound, true)
			}
			for len(ws.open) > 0 {
				st.Pruned++
				if pn := &ws.slab[ws.pop()]; rec {
					ws.record(pn, pn.bound, true)
				}
			}
			break
		}
		st.Expanded++
		if rec {
			ws.record(&nd, in.objective(nd.f), false)
		}
		// A child's picksOf rewrites only the slot past nd's picks.
		picked := ws.picksOf(&nd)
		for j := nd.next; j < n; j++ {
			if in.clashes(picked, j) {
				continue
			}
			for oi := range in.Clusters[j].Options {
				st.Nodes++
				child := node{
					next:   j + 1,
					f:      in.add(nd.f, j, oi),
					parent: idx,
					depth:  nd.depth + 1,
					last:   pick{j, oi},
				}
				of := in.objective(child.f)
				if of <= bestOF {
					if p := ws.picksOf(&child); of < bestOF || lexLess(p, ws.best) {
						bestOF = of
						ws.best = append(ws.best[:0], p...)
					}
				}
				consider(&child)
			}
		}
	}
	st.Proven, st.Bound = true, bestOF

	f := in.replay(ws.best)
	e, c, g := in.point(f)
	opt := &Optimum{ //lint:alloc the returned optimum
		App:    in.App,
		Geom:   in.Geom,
		OF:     bestOF,
		Energy: units.Energy(e),
		Cycles: c,
		GEQ:    g,
		Stats:  st,
		Inst:   in,
	}
	if len(ws.best) > 0 {
		opt.Picks = make([]Pick, len(ws.best)) //lint:alloc the returned picks
		for i, p := range ws.best {
			opt.Picks[i] = in.pickOf(p)
		}
	}
	if rec {
		opt.Cert = ws.certificate(in.App, maxPicks, bestOF, st.Nodes)
	}
	return opt, nil
}

// Result is one application's exact optima, one per cache geometry.
// Objectives are normalized per geometry (each against its own E_0/T_0),
// so OF values compare within a geometry — greedy vs exact — not across
// geometries; cross-geometry comparisons use the objective triples.
type Result struct {
	App    string     `json:"app"`
	Optima []*Optimum `json:"optima"`
}

// Solve builds and exactly solves one instance per prepared geometry.
// The Prep supplies the measurement, the shared evaluator and the
// per-geometry baselines, so milp prices the identical floats the
// Pareto search does.
func Solve(ctx context.Context, p *dse.Prep, cfg Config) (*Result, error) {
	if cfg.MaxHW <= 0 {
		cfg.MaxHW = dse.DefaultMaxHW
	}
	if cfg.Workers <= 0 {
		cfg.Workers = explore.DefaultWorkers()
	}
	// Build every instance serially, in geometry order: the evaluator's
	// pair cache has one writer, and the fan-out below only solves the
	// finished instances.
	insts := make([]*Instance, len(p.Geoms))
	for gi, g := range p.Geoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := BuildInstance(p.Delta, p.Bases[gi], g, cfg.MaxHW)
		if err != nil {
			return nil, err
		}
		in.App = p.IR.Name
		insts[gi] = in
	}
	total := len(insts)
	var done atomic.Int64
	optima, err := explore.MapCtx(ctx, cfg.Workers, insts, func(_ int, in *Instance) (*Optimum, error) {
		o, err := SolveInstance(ctx, in, cfg)
		if err != nil {
			return nil, err
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(int(done.Add(1)), total)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{App: p.IR.Name, Optima: optima}, nil
}
