package jobs

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCancelFinishRace hammers the first-terminal-state-wins
// rule: for every job, a canceler and a finisher race, and whichever
// lands first must own the final snapshot — run under -race, this also
// proves the table's locking. This is the cluster's steal scenario in
// miniature: a stolen shard's duplicate run and the original owner both
// try to finish one ledger entry.
func TestConcurrentCancelFinishRace(t *testing.T) {
	s := NewStore(256)
	const n = 64
	ids := make([]string, n)
	for i := range ids {
		snap, created, err := s.Create("explore", fmt.Sprintf("key-%d", i), func() {})
		if err != nil || !created {
			t.Fatalf("Create %d: created=%v err=%v", i, created, err)
		}
		ids[i] = snap.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(2)
		go func(id string) {
			defer wg.Done()
			if s.Start(id) {
				s.Finish(id, []byte(`{"winner":"worker"}`))
			}
		}(id)
		go func(id string) {
			defer wg.Done()
			s.Cancel(id)
		}(id)
	}
	wg.Wait()
	for _, id := range ids {
		snap, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch snap.State {
		case Done:
			if string(snap.Result) != `{"winner":"worker"}` || snap.Error != "" {
				t.Errorf("job %s Done but result %q error %q", id, snap.Result, snap.Error)
			}
		case Failed:
			if snap.Error != "canceled" || snap.Result != nil {
				t.Errorf("job %s Failed but error %q result %q", id, snap.Error, snap.Result)
			}
		default:
			t.Errorf("job %s non-terminal state %s", id, snap.State)
		}
	}
	if got := s.Count(Done) + s.Count(Failed); got != n {
		t.Errorf("terminal count %d, want %d", got, n)
	}
}

// TestConcurrentDualFinishRace: two executors (owner and thief) both
// complete one job; exactly the first result sticks, byte for byte.
func TestConcurrentDualFinishRace(t *testing.T) {
	s := NewStore(256)
	const n = 64
	for i := 0; i < n; i++ {
		snap, _, err := s.Create("explore", fmt.Sprintf("dual-%d", i), func() {})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Start(snap.ID) {
			t.Fatalf("Start %s", snap.ID)
		}
		var wg sync.WaitGroup
		for _, who := range []string{"owner", "thief"} {
			wg.Add(1)
			go func(who string) {
				defer wg.Done()
				s.Finish(snap.ID, []byte(who))
			}(who)
		}
		wg.Wait()
		got, ok := s.Get(snap.ID)
		if !ok || got.State != Done {
			t.Fatalf("job %s not done: %+v", snap.ID, got)
		}
		if r := string(got.Result); r != "owner" && r != "thief" {
			t.Fatalf("job %s result %q is neither completion", snap.ID, r)
		}
	}
}

// TestConcurrentProgressAndAll: All() snapshots stay consistent while
// workers mutate progress and states underneath it.
func TestConcurrentProgressAndAll(t *testing.T) {
	s := NewStore(64)
	const n = 32
	ids := make([]string, n)
	for i := range ids {
		snap, _, err := s.Create("explore", fmt.Sprintf("p-%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	var workers sync.WaitGroup
	for _, id := range ids {
		workers.Add(1)
		go func(id string) {
			defer workers.Done()
			s.Start(id)
			for d := 0; d <= 8; d++ {
				s.Progress(id, d, 8)
			}
			s.Finish(id, []byte("done"))
		}(id)
	}
	for _, id := range ids[:n/2] {
		workers.Add(1)
		go func(id string) {
			defer workers.Done()
			s.Delete(id)
		}(id)
	}
	stop := make(chan struct{})
	go func() {
		workers.Wait()
		close(stop)
	}()
	for {
		for _, snap := range s.All() {
			if snap.Result != nil {
				t.Fatal("All leaked a result body")
			}
		}
		select {
		case <-stop:
			if got := len(s.All()); got > n {
				t.Errorf("All returned %d jobs, table max is %d", got, n)
			}
			return
		default:
		}
	}
}
