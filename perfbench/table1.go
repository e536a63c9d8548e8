package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/interp"
	"lppart/internal/partition"
	"lppart/internal/system"
)

// table1 regenerates the paper's Table 1: one op evaluates all six
// applications, from source text to the co-simulated partitioned
// design, in a seed-shuffled order.
type table1 struct {
	apps  []apps.App
	order []int
	rows  []string // the warm-up op's rows, in Table 1 order
	irs   []*cdfg.Program
	evs   []*system.Evaluation

	// Counters summed over the traced phase's ops.
	steps, instrs            int64
	iAcc, iMiss, dAcc, dMiss int64
	memoBinds, memoHits      int
}

func setupTable1(ctx context.Context, seed int64) (closedWorkload, error) {
	all := apps.All()
	w := &table1{
		apps:  all,
		order: rand.New(rand.NewSource(seed)).Perm(len(all)),
		irs:   make([]*cdfg.Program, len(all)),
		evs:   make([]*system.Evaluation, len(all)),
	}
	rows, err := w.round(ctx, -1, nil, -1)
	if err != nil {
		return nil, err
	}
	w.rows = rows
	return w, nil
}

// round evaluates every application once and returns its Table 1 rows.
func (w *table1) round(ctx context.Context, i int, sp *spanLog, root int) ([]string, error) {
	rows := make([]string, len(w.apps))
	for _, ai := range w.order {
		a := &w.apps[ai]
		var src *behav.Program
		var ir *cdfg.Program
		var ev *system.Evaluation
		err := sp.run("behav.parse", i, root, func() (err error) {
			src, err = behav.Parse(a.Name, a.Source)
			return err
		})
		if err == nil {
			err = sp.run("cdfg.build", i, root, func() (err error) {
				ir, err = cdfg.Build(src)
				return err
			})
		}
		if err == nil {
			err = sp.run("system.evaluate_ir", i, root, func() (err error) {
				ev, err = system.EvaluateIRCtx(ctx, ir, system.Config{})
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		rows[ai] = table1Row(ev)
		w.irs[ai], w.evs[ai] = ir, ev
	}
	return rows, nil
}

// table1Row renders one application's Table 1 numbers. %v prints the
// shortest decimal that parses back to the same float64, so equal rows
// mean bit-identical floats.
func table1Row(ev *system.Evaluation) string {
	in := ev.Initial
	row := fmt.Sprintf("%s savings_pct=%v time_change_pct=%v initial_cycles=%d initial_energy_j=%v",
		ev.App, ev.Savings(), ev.TimeChange(), in.TotalCycles(), float64(in.Total()))
	if p := ev.Partitioned; p != nil {
		row += fmt.Sprintf(" geq=%d partitioned_cycles=%d partitioned_energy_j=%v",
			p.GEQ, p.TotalCycles(), float64(p.Total()))
	}
	return row
}

// checkTable1 compares rows with the committed golden rows; they do not
// depend on the seed, which only shuffles the evaluation order.
func checkTable1(rows []string) error {
	want := golden.Table1
	if len(rows) != len(want) {
		return checkf("table1: %d rows, golden has %d", len(rows), len(want))
	}
	for k := range rows {
		if rows[k] != want[k] {
			return checkf("table1: row %d is %q, golden %q", k, rows[k], want[k])
		}
	}
	return nil
}

func (w *table1) op(ctx context.Context, i int, sp *spanLog, root int) error {
	rows, err := w.round(ctx, i, sp, root)
	if err != nil {
		return err
	}
	if err := checkTable1(rows); err != nil {
		return err
	}
	if sp != nil {
		for _, ev := range w.evs {
			w.instrs += ev.Initial.ISS.Instrs
			w.iAcc += ev.Initial.IStats.Accesses
			w.iMiss += ev.Initial.IStats.Misses
			w.dAcc += ev.Initial.DStats.Accesses
			w.dMiss += ev.Initial.DStats.Misses
			w.memoBinds += ev.Decision.Memo.Binds
			w.memoHits += ev.Decision.Memo.Hits
		}
	}
	return nil
}

// attribute re-runs the stages EvaluateIRCtx hides, one public call
// each, on the op's IR: the measurement front half, and inside it the
// profiling run and the compile; then the greedy Fig. 1 loop. The ISS
// and co-simulation shares are what remains of the op's spans.
func (w *table1) attribute(ctx context.Context, i int, sp *spanLog) error {
	cfg := system.Config{}
	for ai, ir := range w.irs {
		var ev *system.Evaluation
		var base *partition.Baseline
		err := sp.run("attr.system.measure", i, -1, func() (err error) {
			ev, base, err = system.MeasureInitialCtx(ctx, ir, cfg)
			return err
		})
		if err == nil {
			err = sp.run("attr.interp.profile", i, -1, func() error {
				r, err := interp.Run(ir, interp.Options{CollectProfile: true})
				if err == nil {
					w.steps += r.Steps
				}
				return err
			})
		}
		if err == nil {
			err = sp.run("attr.codegen.compile", i, -1, func() error {
				_, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 20, StackWords: 1 << 14})
				return err
			})
		}
		if err == nil {
			err = sp.run("attr.partition.greedy", i, -1, func() error {
				_, err := partition.PartitionCtx(ctx, ir, ev.Profile, base, cfg.Part)
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("%s: attribution: %w", w.apps[ai].Name, err)
		}
	}
	return nil
}

func (w *table1) layers(self map[string]float64, ops int) ([]metric, float64) {
	n := float64(max(ops, 1))
	per := func(name string) float64 { return self[name] / n }
	measure := per("attr.system.measure")
	profile := per("attr.interp.profile")
	compile := per("attr.codegen.compile")
	greedy := per("attr.partition.greedy")
	iss := max(measure-profile-compile, 0)
	cosim := max(per("system.evaluate_ir")-measure-greedy, 0)
	v := map[string]float64{
		"behav.parse_ms":       per("behav.parse"),
		"cdfg.build_ms":        per("cdfg.build"),
		"interp.profile_ms":    profile,
		"interp.steps":         float64(w.steps) / n,
		"codegen.compile_ms":   compile,
		"iss.run_ms":           iss,
		"iss.instrs":           float64(w.instrs) / n,
		"cache.i_miss_ratio":   ratio(w.iMiss, w.iAcc),
		"cache.d_miss_ratio":   ratio(w.dMiss, w.dAcc),
		"system.measure_ms":    measure,
		"partition.greedy_ms":  greedy,
		"partition.memo_binds": float64(w.memoBinds) / n,
		"system.cosim_ms":      cosim,
	}
	v["partition.memo_hit_ratio"] = ratio(int64(w.memoHits), int64(w.memoHits+w.memoBinds))
	if profile > 0 {
		v["interp.msteps_per_s"] = v["interp.steps"] / profile / 1e3
	}
	if iss > 0 {
		v["iss.minstr_per_s"] = v["iss.instrs"] / iss / 1e3
	}
	// Only directly timed calls count as covered: iss and cosim are
	// remainders, so counting them would cover the op by construction.
	covered := v["behav.parse_ms"] + v["cdfg.build_ms"] + measure + greedy
	return values(v), covered
}

func (w *table1) digest() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(w.rows, "\n"))))
}

func (w *table1) close() {}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
