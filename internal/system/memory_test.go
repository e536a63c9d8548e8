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

// TestEvaluateIRISSMemoryZeroAlloc pins the ISS memory reuse: a warm
// evaluation of MPG runs the ISS twice (initial and partitioned design),
// each on a 4 MiB memory, and must allocate neither.
func TestEvaluateIRISSMemoryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	ir := buildApp(t, "MPG")
	// One P keeps the pool's Get on the P of the last Put (see
	// iss.TestISSMemoryReuseZeroAlloc).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eval := func() {
		ev, err := EvaluateIRCtx(context.Background(), ir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Partitioned == nil {
			t.Fatal("MPG has no partitioned design")
		}
	}
	eval() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eval()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm EvaluateIRCtx(MPG) allocates %d B", got)
	if got >= 2e6 {
		t.Errorf("warm EvaluateIRCtx(MPG) allocates %d B, want under 2 MB", got)
	}
}

// TestMeasureInitialProfileZeroAlloc guards the one-simulation
// measurement: the block profile comes from the initial design's ISS run,
// so a warm MeasureInitialCtx(MPG) allocates no interpreter state. It
// allocated 213.7 KB while an interpreter profiling run (69.2 KB of it)
// preceded the ISS; the ceiling sits 53.7 KB below that, so a second
// simulation cannot come back unnoticed.
func TestMeasureInitialProfileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	ir := buildApp(t, "MPG")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func() {
		if _, _, err := MeasureInitialCtx(context.Background(), ir, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	measure() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	measure()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm MeasureInitialCtx(MPG) allocates %d B", got)
	if got >= 160_000 {
		t.Errorf("warm MeasureInitialCtx(MPG) allocates %d B, want under 160000 B", got)
	}
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
	pd, lay, err := runPartitioned(ir, ev.Decision, &cfg)
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
