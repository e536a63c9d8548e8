package system

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
)

func buildApp(t *testing.T, name string) *cdfg.Program {
	t.Helper()
	a, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestEvaluateIRISSMemoryZeroAlloc pins the recycled scratch: a warm
// evaluation of MPG runs the ISS twice (initial and partitioned design),
// each on a 4 MiB memory, and the Fig. 1 search's schedules and bindings
// on recycled workspaces, and must allocate none of them, on whichever P
// it runs, after GCs, and under the race detector. The ceiling is the
// 317 KB a warm evaluation allocated with warm pools plus 10% (it
// allocates about 290 KB since the scheduler reuses its reader lists);
// it was 2 MB, and one P, while a goroutine that changed P could miss
// the pooled memory, and a call after two GCs allocated about 402 KB
// (1.9 MB under -race) while the scheduler's and binder's workspaces sat
// in a bare sync.Pool.
func TestEvaluateIRISSMemoryZeroAlloc(t *testing.T) {
	ir := buildApp(t, "MPG")
	eval := func() {
		ev, err := EvaluateIRCtx(context.Background(), ir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Partitioned == nil {
			t.Fatal("MPG has no partitioned design")
		}
	}
	got := warmAlloc(eval)
	t.Logf("warm EvaluateIRCtx(MPG) allocates %d B", got)
	if got >= 350_000 {
		t.Errorf("warm EvaluateIRCtx(MPG) allocates %d B, want under 350000 B", got)
	}
}

// TestMeasureInitialProfileZeroAlloc guards the one-simulation
// measurement: the block profile comes from the initial design's ISS run,
// so a warm MeasureInitialCtx(MPG) allocates no interpreter state. It
// allocated 213.7 KB while an interpreter profiling run (69.2 KB of it)
// preceded the ISS, and 146.8 KB before codegen sized its code array
// once and the caches flattened their lines; the ceiling is today's
// 88.2 KB plus 10%, so none of these can come back unnoticed.
func TestMeasureInitialProfileZeroAlloc(t *testing.T) {
	ir := buildApp(t, "MPG")
	measure := func() {
		if _, _, err := MeasureInitialCtx(context.Background(), ir, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	got := warmAlloc(measure)
	t.Logf("warm MeasureInitialCtx(MPG) allocates %d B", got)
	if got >= 97_000 {
		t.Errorf("warm MeasureInitialCtx(MPG) allocates %d B, want under 97000 B", got)
	}
}

// warmAlloc returns the bytes f allocates in one call after a warm-up
// call and two GCs, which would empty a bare sync.Pool: the recycled
// scratch must survive them.
func warmAlloc(f func()) uint64 {
	f()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCrossCheckDetectsCorruptedGlobal makes sure Evaluate releases both
// ISS memories and that the copied globals still catch a partitioned
// design that diverges from the initial one.
func TestCrossCheckDetectsCorruptedGlobal(t *testing.T) {
	ir := buildApp(t, "MPG")
	cfg := Config{}
	cfg.defaults()
	ev, err := EvaluateIRCtx(context.Background(), ir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Initial.ISS.Mem != nil || ev.Partitioned.ISS.Mem != nil {
		t.Error("ISS memory still held after Evaluate")
	}
	if ev.Initial.ISS.Instrs == 0 || ev.Partitioned.ISS.Instrs == 0 {
		t.Error("ISS statistics lost with the memory")
	}
	pd, lay, err := runPartitioned(context.Background(), ir, ev.Decision, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pd.ISS.Release()
	if err := verify(ir, ev.initialGlobals, lay, pd.ISS.Mem); err != nil {
		t.Fatalf("uncorrupted co-simulation: %v", err)
	}
	gi := len(ir.Globals) - 1
	addr, words, _ := lay.VarAddr(ir, "", true, gi)
	pd.ISS.Mem[addr+words-1]++
	err = verify(ir, ev.initialGlobals, lay, pd.ISS.Mem)
	if err == nil || !strings.Contains(err.Error(), ir.Globals[gi].Name) {
		t.Errorf("corrupted global %s: verify = %v, want a divergence naming it",
			ir.Globals[gi].Name, err)
	}
}
