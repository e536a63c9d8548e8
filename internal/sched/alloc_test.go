package sched

import (
	"runtime"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/tech"
)

// TestScheduleRegionSurvivesGCZeroAlloc checks that the scheduler's
// workspace outlives two garbage collections, which empty a bare
// sync.Pool, and serves a warm ScheduleRegion on another goroutine,
// which may sit on another P: scheduling MPG's regions then allocates
// only the schedules it returns.
func TestScheduleRegionSurvivesGCZeroAlloc(t *testing.T) {
	a, err := apps.ByName("MPG")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	type pair struct {
		cfg Config
		r   *cdfg.Region
	}
	var pairs []pair
	for _, r := range ir.Regions() {
		for si := range sets {
			cfg := Config{Lib: lib, RS: &sets[si]}
			if _, err := ScheduleRegion(cfg, r); err == nil { // calls, or a set too small
				pairs = append(pairs, pair{cfg, r})
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("MPG has no schedulable region")
	}
	out := make([]*RegionSchedule, len(pairs))
	done := make(chan error)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		for i, p := range pairs {
			rs, err := ScheduleRegion(p.cfg, p.r)
			if err != nil {
				done <- err
				return
			}
			out[i] = rs
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	// Each schedule is a RegionSchedule, its Blocks slice, and per block a
	// BlockSchedule and its Ops. Starting the goroutine allocates its
	// closure, plus a descriptor while the runtime has no free one, and
	// the runtime may allocate a little meanwhile: 1 to 5 objects in all.
	// A workspace built afresh is about 225.
	var returned uint64
	for _, rs := range out {
		returned += 2
		for _, bs := range rs.Blocks {
			returned++
			if cap(bs.Ops) > 0 {
				returned++
			}
		}
	}
	const slack = 16
	got := after.Mallocs - before.Mallocs
	t.Logf("%d pairs: %d allocations, %d of them the returned schedules", len(pairs), got, returned)
	if got > returned+slack {
		t.Errorf("ScheduleRegion after two GCs allocates %d objects, want at most the %d returned + %d",
			got, returned, slack)
	}
}
