package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/memostore"
	"lppart/internal/milp"
)

// Search workload settings: a pool of up to 16 clusters, up to three of
// them in hardware, so the searches have a real design space.
const (
	searchMaxClusters = 16
	searchMaxHW       = 3
	searchWorkers     = 2
)

// search answers one design-space query per op on the seed's generated
// program: the Pareto frontier with a warm measurement store, then the
// certified exact optimum per cache geometry, every certificate replayed.
type search struct {
	ir    *cdfg.Program
	dir   string
	store *memostore.Store
	cfg   dse.Config
	want  []byte // the warm-up op's output

	// Counters summed over the traced phase's ops.
	configs, pruned, pairEvals, memoAdds, points int64
	nodes, expanded, milpPruned                  int64
}

func setupSearch(ctx context.Context, seed int64) (closedWorkload, error) {
	prog, err := behav.Parse(fmt.Sprintf("gen%d", seed), genProgram(seed))
	if err != nil {
		return nil, fmt.Errorf("generated program: %w", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("generated program: %w", err)
	}
	// Region.Ops fills a per-region cache on first use without a lock,
	// and Explore's two geometry workers would race to fill it (the race
	// detector reports it); fill every cache here, before any fan-out.
	for _, r := range ir.Regions() {
		r.Ops()
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "search-store-")
	if err != nil {
		return nil, err
	}
	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		os.RemoveAll(dir) //lint:err best-effort removal of the empty store directory
		return nil, err
	}
	w := &search{ir: ir, dir: dir, store: st}
	w.cfg = dse.Config{Workers: searchWorkers, MaxHW: searchMaxHW, Store: st}
	w.cfg.Sys.Part.MaxClusters = searchMaxClusters
	// The first query measures the program and fills the store; it and
	// the warm-up query are set-up.
	for k := 0; k < 2; k++ {
		if w.want, err = w.query(ctx, -1, nil, -1); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// exactWire is one geometry's optimum as the op's output renders it.
type exactWire struct {
	milp.Optimum
	GreedyOF float64 `json:"greedy_of"`
}

// query runs one design-space query and returns its output bytes.
func (w *search) query(ctx context.Context, i int, sp *spanLog, root int) ([]byte, error) {
	var f *dse.Frontier
	var p *dse.Prep
	var res *milp.Result
	err := sp.run("dse.explore", i, root, func() (err error) {
		f, err = dse.Explore(ctx, w.ir, w.cfg)
		return err
	})
	if err == nil {
		err = sp.run("dse.prepare", i, root, func() (err error) {
			p, err = dse.Prepare(ctx, w.ir, w.cfg)
			return err
		})
	}
	if err == nil {
		err = sp.run("milp.solve", i, root, func() (err error) {
			res, err = milp.Solve(ctx, p, milp.Config{MaxHW: searchMaxHW, Workers: searchWorkers, Certificate: true})
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	optima := make([]exactWire, len(res.Optima))
	err = sp.run("milp.check", i, root, func() error {
		for k, o := range res.Optima {
			if err := milp.Check(o.Inst, o.Cert); err != nil {
				return checkf("search op %d: geometry %d: certificate does not replay: %v", i, k, err)
			}
			g, _, _ := o.Inst.Greedy()
			if o.OF > g*(1+ofSlack) {
				return checkf("search op %d: geometry %d: exact OF %v above greedy OF %v", i, k, o.OF, g)
			}
			optima[k] = exactWire{Optimum: *o, GreedyOF: g}
			optima[k].Cert, optima[k].Inst = nil, nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		w.configs += f.Stats.Configs
		w.pruned += f.Stats.Pruned
		w.pairEvals += f.Stats.PairEvals
		w.memoAdds += f.Stats.MemoAdds
		w.points += int64(len(f.Points))
		for _, o := range res.Optima {
			w.nodes += o.Stats.Nodes
			w.expanded += o.Stats.Expanded
			w.milpPruned += o.Stats.Pruned
		}
	}
	return json.Marshal(struct {
		Frontier *dse.Frontier `json:"frontier"`
		Exact    []exactWire   `json:"exact"`
	}{f, optima})
}

func (w *search) op(ctx context.Context, i int, sp *spanLog, root int) error {
	out, err := w.query(ctx, i, sp, root)
	if err != nil {
		return err
	}
	if string(out) != string(w.want) {
		return checkf("search op %d: output differs from the warm-up query's", i)
	}
	return nil
}

// attribute times the Pareto search alone on fresh preparations (empty
// schedule/binding memo, as inside Explore) with one and with two
// workers: the geometry fan-out's speed-up.
func (w *search) attribute(ctx context.Context, i int, sp *spanLog) error {
	for _, workers := range []int{1, searchWorkers} {
		p, err := dse.Prepare(ctx, w.ir, w.cfg)
		if err != nil {
			return err
		}
		cfg := w.cfg
		cfg.Workers = workers
		err = sp.run(fmt.Sprintf("attr.dse.explore_prep_w%d", workers), i, -1, func() error {
			_, err := dse.ExplorePrep(ctx, p, cfg)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *search) layers(self map[string]float64, ops int) ([]metric, float64) {
	n := float64(max(ops, 1))
	per := func(name string) float64 { return self[name] / n }
	// Explore replays the store once inside, the op's Prepare once more.
	replay := per("dse.prepare")
	searchMs := max(per("dse.explore")-replay, 0)
	v := map[string]float64{
		"memostore.replay_ms": 2 * replay,
		"memostore.bytes":     float64(dirBytes(w.dir)),
		"dse.search_ms":       searchMs,
		"dse.configs":         float64(w.configs) / n,
		"dse.pruned":          float64(w.pruned) / n,
		"dse.prune_ratio":     ratio(w.pruned, w.pruned+w.configs),
		"dse.pair_evals":      float64(w.pairEvals) / n,
		"dse.memo_adds":       float64(w.memoAdds) / n,
		"dse.points":          float64(w.points) / n,
		"milp.solve_ms":       per("milp.solve"),
		"milp.nodes":          float64(w.nodes) / n,
		"milp.expanded":       float64(w.expanded) / n,
		"milp.pruned":         float64(w.milpPruned) / n,
		"milp.check_ms":       per("milp.check"),
	}
	if par := self[fmt.Sprintf("attr.dse.explore_prep_w%d", searchWorkers)]; par > 0 {
		v["explore.geom_speedup"] = self["attr.dse.explore_prep_w1"] / par
	}
	// The four timed calls; the op's own encoding and comparison are not.
	covered := per("dse.explore") + replay + v["milp.solve_ms"] + v["milp.check_ms"]
	return values(v), covered
}

func (w *search) digest() string { return fmt.Sprintf("%x", sha256.Sum256(w.want)) }

// close drops the run's scratch store; nothing reads it afterwards.
func (w *search) close() {
	w.store.Close()     //lint:err the store is deleted next
	os.RemoveAll(w.dir) //lint:err best-effort removal of scratch files under the build directory
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // an unreadable store reports 0 bytes
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}
