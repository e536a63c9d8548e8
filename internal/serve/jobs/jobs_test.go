package jobs

import (
	"context"
	"errors"
	"testing"
)

func TestLifecycle(t *testing.T) {
	s := NewStore(4)
	snap, created, err := s.Create("explore", "k1", nil)
	if err != nil || !created {
		t.Fatalf("Create: created=%v err=%v", created, err)
	}
	if snap.ID != "j000001" || snap.State != Queued {
		t.Fatalf("fresh job: %+v", snap)
	}
	if !s.Start(snap.ID) {
		t.Fatal("Start refused a queued job")
	}
	s.Progress(snap.ID, 2, 4)
	got, ok := s.Get(snap.ID)
	if !ok || got.State != Running || got.Done != 2 || got.Total != 4 {
		t.Fatalf("running job: %+v", got)
	}
	s.Finish(snap.ID, []byte(`{"x":1}`))
	got, _ = s.Get(snap.ID)
	if got.State != Done || string(got.Result) != `{"x":1}` || got.Done != got.Total {
		t.Fatalf("finished job: %+v", got)
	}
	// Terminal state is sticky.
	s.Fail(snap.ID, "late failure")
	if got, _ = s.Get(snap.ID); got.State != Done || got.Error != "" {
		t.Fatalf("Fail overrode Done: %+v", got)
	}
}

func TestDedupeByKey(t *testing.T) {
	s := NewStore(4)
	a, created, _ := s.Create("explore", "k", nil)
	if !created {
		t.Fatal("first Create not created")
	}
	b, created, _ := s.Create("explore", "k", nil)
	if created || b.ID != a.ID {
		t.Fatalf("dedupe failed: created=%v id=%s want %s", created, b.ID, a.ID)
	}
	// After Delete, the key is free again.
	s.Delete(a.ID)
	c, created, _ := s.Create("explore", "k", nil)
	if !created || c.ID == a.ID {
		t.Fatalf("post-delete Create: created=%v id=%s", created, c.ID)
	}
}

// TestFailedJobDoesNotDedupe: a failed job (shed, timed out, canceled)
// no longer answers for its key, so the same request creates a new job;
// the failed one stays readable under its own ID, and evicting it keeps
// the new job mapped.
func TestFailedJobDoesNotDedupe(t *testing.T) {
	s := NewStore(2)
	a, _, _ := s.Create("explore", "k", nil)
	s.Fail(a.ID, "queue full")
	b, created, err := s.Create("explore", "k", nil)
	if err != nil || !created || b.ID == a.ID {
		t.Fatalf("Create after a failure: created=%v err=%v id=%s (failed job %s)", created, err, b.ID, a.ID)
	}
	if got, ok := s.Get(a.ID); !ok || got.State != Failed || got.Error != "queue full" {
		t.Fatalf("failed job after a new Create: ok=%v %+v", ok, got)
	}
	// A full table evicts the failed job, the oldest terminal one.
	if _, created, err := s.Create("explore", "x", nil); err != nil || !created {
		t.Fatalf("Create into a table holding a failed job: created=%v err=%v", created, err)
	}
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("failed job survived eviction")
	}
	if c, created, _ := s.Create("explore", "k", nil); created || c.ID != b.ID {
		t.Fatalf("Create after evicting the failed job: created=%v id=%s, want dedupe onto %s", created, c.ID, b.ID)
	}
}

func TestFullTableAndEviction(t *testing.T) {
	s := NewStore(2)
	a, _, _ := s.Create("explore", "a", nil)
	s.Create("explore", "b", nil)
	if _, _, err := s.Create("explore", "c", nil); !errors.Is(err, ErrFull) {
		t.Fatalf("full table: err=%v, want ErrFull", err)
	}
	// Finishing one job frees its slot for eviction.
	s.Start(a.ID)
	s.Finish(a.ID, nil)
	c, created, err := s.Create("explore", "c", nil)
	if err != nil || !created {
		t.Fatalf("Create after finish: created=%v err=%v", created, err)
	}
	if _, ok := s.Get(a.ID); ok {
		t.Error("finished job survived eviction")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	_ = c
}

func TestCancelFiresAndWins(t *testing.T) {
	s := NewStore(2)
	ctx, cancel := context.WithCancel(context.Background())
	snap, _, _ := s.Create("explore", "k", cancel)
	s.Start(snap.ID)
	got, ok := s.Cancel(snap.ID)
	if !ok || got.State != Failed || got.Error != "canceled" {
		t.Fatalf("canceled job: %+v", got)
	}
	if ctx.Err() == nil {
		t.Error("Cancel did not fire the CancelFunc")
	}
	// The worker's late Finish must not resurrect the job.
	s.Finish(snap.ID, []byte("late"))
	if got, _ = s.Get(snap.ID); got.State != Failed || got.Result != nil {
		t.Fatalf("Finish overrode cancel: %+v", got)
	}
	// Cancel of a terminal job is a no-op that still returns it.
	if got, ok = s.Cancel(snap.ID); !ok || got.State != Failed {
		t.Fatalf("re-cancel: ok=%v %+v", ok, got)
	}
}

func TestStartAfterCancel(t *testing.T) {
	s := NewStore(2)
	snap, _, _ := s.Create("explore", "k", func() {})
	s.Cancel(snap.ID)
	if s.Start(snap.ID) {
		t.Error("Start accepted a canceled job")
	}
}

func TestCounts(t *testing.T) {
	s := NewStore(8)
	a, _, _ := s.Create("explore", "a", nil)
	b, _, _ := s.Create("explore", "b", nil)
	s.Create("explore", "c", nil)
	s.Start(a.ID)
	s.Start(b.ID)
	s.Finish(b.ID, nil)
	if q, r, d := s.Count(Queued), s.Count(Running), s.Count(Done); q != 1 || r != 1 || d != 1 {
		t.Errorf("counts queued=%d running=%d done=%d, want 1/1/1", q, r, d)
	}
	s.Delete(b.ID)
	if d := s.Count(Done); d != 0 {
		t.Errorf("Done count after delete = %d", d)
	}
}
