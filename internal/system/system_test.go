package system

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/iss"
	"lppart/internal/partition"
	"lppart/internal/tech"
	"lppart/internal/trace"
)

// evalApp caches the six full evaluations across tests (each takes real
// simulation time).
var (
	evalOnce  sync.Once
	evalCache map[string]*Evaluation
	evalErr   error
)

func evaluateAll(t *testing.T) map[string]*Evaluation {
	t.Helper()
	evalOnce.Do(func() {
		evalCache = make(map[string]*Evaluation)
		for _, a := range apps.All() {
			src, err := a.Parse()
			if err != nil {
				evalErr = err
				return
			}
			ev, err := Evaluate(src, Config{})
			if err != nil {
				evalErr = err
				return
			}
			evalCache[a.Name] = ev
		}
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return evalCache
}

func TestEvaluateSmallProgram(t *testing.T) {
	src := behav.MustParse("mini", `
var a[64]; var out[64]; var total;
func main() {
	var i;
	for i = 0; i < 64; i = i + 1 { a[i] = (i * 13) & 255; }
	for i = 0; i < 64; i = i + 1 { out[i] = (a[i] * 3 + (a[i] >> 2)) & 255; }
	for i = 0; i < 64; i = i + 1 { total = total + out[i]; }
}
`)
	ev, err := Evaluate(src, Config{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Initial == nil || ev.Initial.Total() <= 0 {
		t.Fatal("initial design missing or zero energy")
	}
	if ev.Initial.EICache <= 0 || ev.Initial.EMuP <= 0 {
		t.Error("initial per-core energies must be positive")
	}
	if ev.Initial.TotalCycles() <= 0 {
		t.Error("initial cycles must be positive")
	}
	// The functional cross-check (verify) ran implicitly if a partition
	// was chosen; either way the evaluation is complete.
	if ev.Decision == nil {
		t.Fatal("no decision recorded")
	}
}

// TestDefaultMemoryMapMatchesCodegen: a program evaluated under the
// default Config must also compile under codegen's default Options (as
// lppart -listing does), so both must default to one memory map. Static
// data this large fits beside the system's stack but not beside a larger
// one.
func TestDefaultMemoryMapMatchesCodegen(t *testing.T) {
	src := behav.MustParse("big", `
var big[1000000]; var total;
func main() {
	var i;
	for i = 0; i < 8; i = i + 1 { big[i] = i * 3; }
	for i = 0; i < 8; i = i + 1 { total = total + big[i]; }
}
`)
	ev, err := Evaluate(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := codegen.Compile(ev.IR, codegen.Options{}); err != nil {
		t.Fatalf("evaluated program does not compile under codegen's defaults: %v", err)
	}
}

func TestTable1AllAppsPartitioned(t *testing.T) {
	evals := evaluateAll(t)
	for name, ev := range evals {
		if ev.Partitioned == nil {
			t.Errorf("%s: no partition chosen — Table 1 needs a partitioned row", name)
		}
	}
}

// TestPaperShapeSavings asserts reproduction target 1: every application
// saves energy, in a band around the paper's Table 1 value.
func TestPaperShapeSavings(t *testing.T) {
	evals := evaluateAll(t)
	for _, a := range apps.All() {
		ev := evals[a.Name]
		if ev.Partitioned == nil {
			continue
		}
		got := ev.Savings()
		if got >= 0 {
			t.Errorf("%s: savings %.2f%%, must be negative", a.Name, got)
			continue
		}
		if math.Abs(got-a.PaperSavings) > 15 {
			t.Errorf("%s: savings %.2f%% vs paper %.2f%% — outside the ±15pp band",
				a.Name, got, a.PaperSavings)
		}
	}
}

// TestPaperShapeSavingsOrdering asserts the per-application ordering of
// savings matches the paper: digs and trick save most, then ckey, then
// MPG, then 3d/engine.
func TestPaperShapeSavingsOrdering(t *testing.T) {
	evals := evaluateAll(t)
	sav := func(name string) float64 { return evals[name].Savings() }
	if !(sav("digs") < sav("ckey") && sav("trick") < sav("ckey")) {
		t.Errorf("digs (%.1f) and trick (%.1f) must save more than ckey (%.1f)",
			sav("digs"), sav("trick"), sav("ckey"))
	}
	if !(sav("ckey") < sav("MPG")) {
		t.Errorf("ckey (%.1f) must save more than MPG (%.1f)", sav("ckey"), sav("MPG"))
	}
	if !(sav("MPG") < sav("3d") && sav("MPG") < sav("engine")) {
		t.Errorf("MPG (%.1f) must save more than 3d (%.1f) and engine (%.1f)",
			sav("MPG"), sav("3d"), sav("engine"))
	}
}

// TestPaperShapeTrickSlowdown asserts reproduction target 3: trick is the
// only application that runs slower after partitioning, while still saving
// the most (with digs) — the paper's standout case.
func TestPaperShapeTrickSlowdown(t *testing.T) {
	evals := evaluateAll(t)
	for _, a := range apps.All() {
		ev := evals[a.Name]
		if ev.Partitioned == nil {
			continue
		}
		chg := ev.TimeChange()
		if a.Name == "trick" {
			if chg <= 0 {
				t.Errorf("trick must slow down, got %.2f%%", chg)
			}
			if ev.Savings() > -80 {
				t.Errorf("trick must still save heavily, got %.2f%%", ev.Savings())
			}
			continue
		}
		if chg >= 0 {
			t.Errorf("%s must get faster, got %.2f%%", a.Name, chg)
		}
	}
}

// TestPaperShapeHardwareBound asserts reproduction target 2: every chosen
// core stays under 16k cells, and digs uses the most hardware.
func TestPaperShapeHardwareBound(t *testing.T) {
	evals := evaluateAll(t)
	maxName, maxGEQ := "", 0
	for name, ev := range evals {
		if ev.Partitioned == nil {
			continue
		}
		if ev.Partitioned.GEQ >= 16000 {
			t.Errorf("%s: %d cells exceed the paper's 16k bound", name, ev.Partitioned.GEQ)
		}
		if ev.Partitioned.GEQ > maxGEQ {
			maxGEQ, maxName = ev.Partitioned.GEQ, name
		}
	}
	if maxName != "digs" {
		t.Errorf("largest core is %s (%d cells), paper says digs", maxName, maxGEQ)
	}
	if maxGEQ < 12000 {
		t.Errorf("largest core only %d cells; paper reports slightly under 16k", maxGEQ)
	}
}

// TestPaperShapeCkeyMemoryNeglect asserts reproduction target 4: ckey is
// the least memory-intensive application — its data-cache plus memory
// energy is a negligible share in both designs. (Unlike the paper we
// charge i-cache energy per fetch, so only the data side can vanish; see
// EXPERIMENTS.md.)
func TestPaperShapeCkeyMemoryNeglect(t *testing.T) {
	evals := evaluateAll(t)
	ev := evals["ckey"]
	share := func(d *Design) float64 {
		return float64(d.EDCache+d.EMem) / float64(d.Total())
	}
	if s := share(ev.Initial); s > 0.05 {
		t.Errorf("ckey initial data+mem share %.3f, want < 0.05", s)
	}
	// And ckey must have the smallest such share among all apps.
	for name, other := range evals {
		if name == "ckey" {
			continue
		}
		if share(other.Initial) < share(ev.Initial) {
			t.Errorf("%s has a smaller data+mem share than ckey", name)
		}
	}
}

// TestPaperShapeCacheEffects asserts reproduction target 5: partitioning
// changes the cache/memory energy too — e.g. trick's i-cache energy
// collapses by orders of magnitude (paper: 5.58 mJ -> 12.59 µJ), and digs'
// memory energy drops.
func TestPaperShapeCacheEffects(t *testing.T) {
	evals := evaluateAll(t)
	trick := evals["trick"]
	if trick.Partitioned != nil {
		ratio := float64(trick.Initial.EICache) / float64(trick.Partitioned.EICache)
		if ratio < 100 {
			t.Errorf("trick i-cache energy must collapse >100x, got %.1fx", ratio)
		}
	}
	digs := evals["digs"]
	if digs.Partitioned != nil {
		if digs.Partitioned.EMem >= digs.Initial.EMem {
			t.Error("digs memory energy must drop after partitioning (no more cache thrash)")
		}
	}
}

// TestPaperShapeUtilization asserts reproduction target 6: every chosen
// cluster has a higher ASIC utilization rate than the µP's.
func TestPaperShapeUtilization(t *testing.T) {
	evals := evaluateAll(t)
	for name, ev := range evals {
		ch := ev.Decision.Chosen
		if ch == nil {
			continue
		}
		if ch.Eval.UASIC <= ch.Eval.UMuP {
			t.Errorf("%s: U_ASIC %.3f <= U_µP %.3f", name, ch.Eval.UASIC, ch.Eval.UMuP)
		}
	}
}

// TestPartitionedMatchesInitialFunctionally re-asserts the built-in verify
// step: Evaluate errors out if the designs diverge, so reaching here with
// partitions chosen is itself the check; this test just documents it.
func TestPartitionedMatchesInitialFunctionally(t *testing.T) {
	evals := evaluateAll(t)
	for name, ev := range evals {
		if ev.Partitioned == nil {
			t.Logf("%s: no partition (nothing to verify)", name)
		} else if ev.Partitioned.ISS == nil {
			t.Errorf("%s: partitioned design has no ISS result", name)
		}
	}
}

func TestGatedClockAblation(t *testing.T) {
	// A5: with gated clocks the µP wastes less idle energy, so the
	// initial design is cheaper and savings shrink.
	a, err := apps.ByName("engine")
	if err != nil {
		t.Fatal(err)
	}
	run := func(gated bool) *Evaluation {
		src, err := a.Parse()
		if err != nil {
			t.Fatal(err)
		}
		lib := tech.Default()
		if gated {
			lib.Micro = lib.Micro.Gated(lib)
		}
		cfg := Config{}
		cfg.Part.Lib = lib
		ev, err := Evaluate(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	plain := run(false)
	gated := run(true)
	if gated.Initial.EMuP >= plain.Initial.EMuP {
		t.Errorf("gated µP energy %v must be below plain %v",
			gated.Initial.EMuP, plain.Initial.EMuP)
	}
}

func TestCacheGeometryAblation(t *testing.T) {
	// A6: a larger d-cache reduces digs' initial memory energy (less
	// thrash), footnote 2's point that E_rest depends on the design.
	a, err := apps.ByName("digs")
	if err != nil {
		t.Fatal(err)
	}
	run := func(dc cache.Config) *Evaluation {
		src, err := a.Parse()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(src, Config{DCache: dc})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	smallCfg := cache.Config{Sets: 32, Assoc: 2, LineWords: 4, WriteBack: true}
	bigCfg := cache.Config{Sets: 512, Assoc: 2, LineWords: 4, WriteBack: true}
	small := run(smallCfg)
	big := run(bigCfg)
	if big.Initial.EMem >= small.Initial.EMem {
		t.Errorf("16 KiB d-cache memory energy %v must be below 1 KiB's %v",
			big.Initial.EMem, small.Initial.EMem)
	}

	// The single-pass profiler reproduces the same knee from ONE extra
	// ISS run: record digs' reference stream once, then derive both A6
	// geometries (and everything between) from one stack pass. The
	// initial design runs the identical reference stream through live
	// cores, so the derived memory energies must match it exactly.
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := codegen.Compile(cdfg.MustBuild(src), codegen.Options{
		MemWords: 1 << 20, StackWords: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := iss.Run(mp, iss.Options{Mem: rec}); err != nil {
		t.Fatal(err)
	}
	reps, err := rec.Trace.SweepParallel([][2]cache.Config{
		{cache.DefaultICache(), smallCfg},
		{cache.DefaultICache(), bigCfg},
	}, tech.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].EMem != small.Initial.EMem || reps[1].EMem != big.Initial.EMem {
		t.Errorf("stack-profiled memory energies (%v, %v) != initial designs' (%v, %v)",
			reps[0].EMem, reps[1].EMem, small.Initial.EMem, big.Initial.EMem)
	}
	if reps[1].EMem >= reps[0].EMem {
		t.Errorf("profiled sweep must show the A6 knee: big %v < small %v",
			reps[1].EMem, reps[0].EMem)
	}
}

func TestWeightedUtilizationAblation(t *testing.T) {
	// A4: size-weighted U_R must not change the chosen partition
	// (paper §3.4's closing observation), checked on the applications
	// most sensitive to the utilization comparison.
	for _, name := range []string{"3d", "ckey", "engine"} {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(weighted bool) *Evaluation {
			src, err := a.Parse()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{}
			cfg.Part.WeightedU = weighted
			ev, err := Evaluate(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		plain := run(false)
		weighted := run(true)
		if plain.Decision.Chosen == nil || weighted.Decision.Chosen == nil {
			t.Fatalf("%s: both configurations must choose a partition", name)
		}
		if plain.Decision.Chosen.Region.Label != weighted.Decision.Chosen.Region.Label {
			t.Errorf("%s: weighted U changed the partition: %s vs %s", name,
				plain.Decision.Chosen.Region.Label, weighted.Decision.Chosen.Region.Label)
		}
	}
}

func TestPartitionConfigF(t *testing.T) {
	// A1: a very large F (energy dominates the objective) still chooses
	// a partition; the decision trail stays well-formed.
	a, err := apps.ByName("ckey")
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.Part = partition.Config{F: 4.0}
	ev, err := Evaluate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Decision.Chosen == nil {
		t.Error("F=4 should still find ckey's dominant cluster")
	}
	if len(ev.Decision.Trail()) == 0 {
		t.Error("empty decision trail")
	}
}

// A cancelled context must abort EvaluateCtx with ctx.Err() instead of
// running the evaluation to completion.
func TestEvaluateCtxCancelled(t *testing.T) {
	src, err := apps.All()[1].Parse()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateCtx(ctx, src, Config{}); err != context.Canceled {
		t.Fatalf("EvaluateCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Deadline expiry surfaces as DeadlineExceeded, not a partial
	// result: use a deadline far too short for one evaluation.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	if _, err := EvaluateCtx(dctx, src, Config{}); err != context.DeadlineExceeded {
		t.Fatalf("EvaluateCtx past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
