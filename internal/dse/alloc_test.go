package dse

import (
	"context"
	"runtime"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/system"
)

// TestPrepareColdTraceZeroAlloc pins the online geometry profiling: a
// cold, store-less Prepare profiles every geometry during the one ISS
// run instead of recording the reference stream, so it allocates at most
// the measurement's own bytes plus a fixed allowance for the stack-
// distance profilers, the evaluator and the baselines — nothing that
// grows with the stream's length.
func TestPrepareColdTraceZeroAlloc(t *testing.T) {
	const slack = 256 << 10
	ctx := context.Background()
	allocs := func(f func()) uint64 {
		f() // warm the ISS memory and the scratch pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, a := range apps.All() {
		ir := buildApp(t, a.Name)
		measure := allocs(func() {
			if _, _, err := system.MeasureInitialCtx(ctx, ir, system.Config{}); err != nil {
				t.Fatal(err)
			}
		})
		prepare := allocs(func() {
			if _, err := Prepare(ctx, ir, Config{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: Prepare allocates %d B, MeasureInitialCtx %d B", a.Name, prepare, measure)
		if prepare > measure+slack {
			t.Errorf("%s: cold Prepare allocates %d B, want at most MeasureInitialCtx's %d B + %d B",
				a.Name, prepare, measure, slack)
		}
	}
}
