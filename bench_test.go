// Benchmark harness: one benchmark per experimental artifact of the paper.
//
//	BenchmarkTable1_*       regenerate the six Table 1 application rows
//	                        (initial vs. partitioned whole-system runs) and
//	                        report savings/time-change/hardware as metrics.
//	BenchmarkFig6           regenerates the Figure 6 series (all six apps).
//	BenchmarkFig6Parallel   the same series on the parallel engine.
//	BenchmarkAblation*      regenerate the DESIGN.md ablation studies A1-A6.
//	BenchmarkExtension*     run the E1 (multi-core) and E2
//	                        (control-dominated) extensions.
//
// Run with: go test -bench=. -benchmem
//
// The framework's own performance (each stage of the flow, the search
// tiers and the daemon) is measured by perfbench; see perfbench/README.md.
package lppart

import (
	"fmt"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/explore"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// evaluateApp runs the full Table 1 flow for one application.
func evaluateApp(b *testing.B, name string, cfg system.Config) *system.Evaluation {
	b.Helper()
	a, err := apps.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	src, err := a.Parse()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := system.Evaluate(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// benchTable1Row regenerates one application's pair of Table 1 rows per
// iteration and publishes the headline numbers as benchmark metrics.
func benchTable1Row(b *testing.B, name string) {
	var ev *system.Evaluation
	for i := 0; i < b.N; i++ {
		ev = evaluateApp(b, name, system.Config{})
	}
	if ev.Partitioned == nil {
		b.Fatalf("%s: no partition chosen", name)
	}
	b.ReportMetric(ev.Savings(), "savings_%")
	b.ReportMetric(ev.TimeChange(), "timechg_%")
	b.ReportMetric(float64(ev.Partitioned.GEQ), "cells")
	b.ReportMetric(float64(ev.Initial.TotalCycles()), "cycles_initial")
	b.ReportMetric(float64(ev.Partitioned.TotalCycles()), "cycles_partitioned")
}

func BenchmarkTable1_3d(b *testing.B)     { benchTable1Row(b, "3d") }
func BenchmarkTable1_MPG(b *testing.B)    { benchTable1Row(b, "MPG") }
func BenchmarkTable1_ckey(b *testing.B)   { benchTable1Row(b, "ckey") }
func BenchmarkTable1_digs(b *testing.B)   { benchTable1Row(b, "digs") }
func BenchmarkTable1_engine(b *testing.B) { benchTable1Row(b, "engine") }
func BenchmarkTable1_trick(b *testing.B)  { benchTable1Row(b, "trick") }

// BenchmarkFig6 regenerates the whole Figure 6 data series (savings and
// time change for all six applications) per iteration.
func BenchmarkFig6(b *testing.B) {
	var minSav, maxSav float64
	for i := 0; i < b.N; i++ {
		minSav, maxSav = 0, -100
		for _, a := range apps.All() {
			ev := evaluateApp(b, a.Name, system.Config{})
			s := ev.Savings()
			if s < minSav {
				minSav = s
			}
			if s > maxSav {
				maxSav = s
			}
		}
	}
	// The paper's headline claim: savings between ~35% and ~94%.
	b.ReportMetric(-maxSav, "min_savings_%")
	b.ReportMetric(-minSav, "max_savings_%")
}

// BenchmarkAblationF sweeps the objective factor (A1) on engine.
func BenchmarkAblationF(b *testing.B) {
	for _, f := range []float64{0.25, 1.0, 4.0} {
		b.Run(fmt.Sprintf("F=%.2f", f), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				cfg := system.Config{}
				cfg.Part.F = f
				ev = evaluateApp(b, "engine", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
		})
	}
}

// BenchmarkAblationPreselect sweeps N_max^c (A2) on MPG.
func BenchmarkAblationPreselect(b *testing.B) {
	for _, n := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("Nmax=%d", n), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				cfg := system.Config{}
				cfg.Part.MaxClusters = n
				ev = evaluateApp(b, "MPG", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
		})
	}
}

// BenchmarkAblationResourceSets sweeps designer-set richness (A3) on digs.
func BenchmarkAblationResourceSets(b *testing.B) {
	all := tech.DefaultResourceSets()
	for _, n := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("sets=%d", n), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				cfg := system.Config{}
				cfg.Part.ResourceSets = all[:n]
				ev = evaluateApp(b, "digs", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
		})
	}
}

// BenchmarkAblationWeightedU compares unweighted vs size-weighted U_R (A4)
// on 3d; the paper argues the partition does not change.
func BenchmarkAblationWeightedU(b *testing.B) {
	for _, w := range []bool{false, true} {
		b.Run(fmt.Sprintf("weighted=%v", w), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				cfg := system.Config{}
				cfg.Part.WeightedU = w
				ev = evaluateApp(b, "3d", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
		})
	}
}

// BenchmarkAblationGatedClock compares the default (non-gated) µP against
// a gated-clock core (A5) on ckey.
func BenchmarkAblationGatedClock(b *testing.B) {
	for _, gated := range []bool{false, true} {
		b.Run(fmt.Sprintf("gated=%v", gated), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				lib := tech.Default()
				if gated {
					lib.Micro = lib.Micro.Gated(lib)
				}
				cfg := system.Config{}
				cfg.Part.Lib = lib
				ev = evaluateApp(b, "ckey", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
		})
	}
}

// BenchmarkAblationCache sweeps the data-cache size (A6) on digs.
func BenchmarkAblationCache(b *testing.B) {
	geoms := map[string]cache.Config{
		"1KiB": {Sets: 32, Assoc: 2, LineWords: 4, WriteBack: true},
		"2KiB": cache.DefaultDCache(),
		"8KiB": {Sets: 256, Assoc: 2, LineWords: 4, WriteBack: true},
	}
	for name, g := range geoms {
		b.Run(name, func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				ev = evaluateApp(b, "digs", system.Config{DCache: g})
			}
			b.ReportMetric(ev.Savings(), "savings_%")
			b.ReportMetric(float64(ev.Initial.EMem)*1e6, "mem_init_uJ")
		})
	}
}

// BenchmarkExtensionMultiCore runs the E1 extension: MPG with one, two
// and three ASIC cores.
func BenchmarkExtensionMultiCore(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			var ev *system.Evaluation
			for i := 0; i < b.N; i++ {
				cfg := system.Config{}
				cfg.Part.MaxCores = n
				ev = evaluateApp(b, "MPG", cfg)
			}
			b.ReportMetric(ev.Savings(), "savings_%")
			b.ReportMetric(float64(len(ev.Decision.Choices)), "cores")
		})
	}
}

// BenchmarkExtensionControlDominated runs the E2 extension: the
// control-dominated proto application, where no partition should win.
func BenchmarkExtensionControlDominated(b *testing.B) {
	a := apps.ControlDominated()
	var ev *system.Evaluation
	for i := 0; i < b.N; i++ {
		src, err := a.Parse()
		if err != nil {
			b.Fatal(err)
		}
		ev, err = system.Evaluate(src, system.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	chosen := 0.0
	if ev.Partitioned != nil {
		chosen = 1
	}
	b.ReportMetric(chosen, "partitioned")
}

// --- parallel evaluation engine ---------------------------------------

// BenchmarkFig6Parallel regenerates the whole Figure 6 / Table 1 series
// with the parallel engine: the six applications fan out onto the
// exploration pool (one worker per GOMAXPROCS CPU, so `-cpu 1,2,4`
// sweeps the width) and each evaluation runs serially inside its worker.
// The fan-out is cmd/report's: explore.Map over system.Evaluate. The
// reported rows are byte-identical to the serial BenchmarkFig6 path (see
// TestEvaluateAllMatchesSerial).
func BenchmarkFig6Parallel(b *testing.B) {
	list := apps.All()
	srcs := make([]*behav.Program, len(list))
	for i, a := range list {
		src, err := a.Parse()
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = src
	}
	var evals []*system.Evaluation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		evals, err = explore.Map(0, srcs, func(_ int, src *behav.Program) (*system.Evaluation, error) {
			return system.Evaluate(src, system.Config{})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	minSav, maxSav := 0.0, -100.0
	for _, ev := range evals {
		s := ev.Savings()
		if s < minSav {
			minSav = s
		}
		if s > maxSav {
			maxSav = s
		}
	}
	b.ReportMetric(-maxSav, "min_savings_%")
	b.ReportMetric(-minSav, "max_savings_%")
}
