// Package jobs is the bounded in-memory job table behind the async job
// endpoints: POST /v1/explore or /v1/exact enqueues work that outlives
// the HTTP request, GET polls it, DELETE cancels it. The table is
// deliberately clock-free — jobs are identified by a sequence number and
// evicted in creation order — so the package stays inside the repo's
// determinism gates (nondetsource): nothing in a job's observable state
// depends on wall time or scheduling, only on the order of store calls.
//
// Lifecycle: Queued → Running → Done | Failed. Cancellation marks the
// job Failed ("canceled") immediately and fires its CancelFunc; the
// computing goroutine's later Finish/Fail becomes a no-op — the first
// terminal state wins, so pollers never see a result flicker in after a
// cancel.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// State is a job's lifecycle phase.
type State int

// The lifecycle phases.
const (
	Queued State = iota
	Running
	Done
	Failed
)

// String names the state on the wire.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return "failed"
	}
}

// terminal reports whether the state is final.
func (s State) terminal() bool { return s == Done || s == Failed }

// ErrFull is returned by Create when every table slot holds an
// unfinished job; callers translate it to 429.
var ErrFull = errors.New("jobs: table full of unfinished jobs")

// Snapshot is a job's observable state at one instant.
type Snapshot struct {
	ID    string
	Kind  string // the job kind ("explore", "exact") that created it
	Key   string // canonical request key the job deduplicates on
	State State
	// Done/Total are coarse progress counters (explored geometries).
	Done, Total int
	Error       string
	Result      []byte // prepared response body, set once with Finish
}

// job is the mutable record behind a Snapshot.
type job struct {
	snap   Snapshot
	cancel context.CancelFunc
}

// Store is a bounded job table. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	max   int
	seq   int64
	jobs  map[string]*job
	byKey map[string]string // canonical key → job ID (dedupe)
	order []string          // creation order, for finished-job eviction
	count [4]int            // per-state occupancy
}

// NewStore returns a table bounded to max jobs; max <= 0 means 64.
func NewStore(max int) *Store {
	if max <= 0 {
		max = 64
	}
	return &Store{max: max, jobs: make(map[string]*job), byKey: make(map[string]string)}
}

// Create returns the job for the canonical key, creating one of the
// given kind when none exists or the existing one failed. created
// reports whether the caller owns the computation (and must eventually
// call Finish or Fail); on dedupe the passed cancel is NOT retained and
// the existing job's snapshot is returned. A failed job stays readable
// under its own ID but no longer answers for its key. A full table of
// unfinished jobs returns ErrFull.
func (s *Store) Create(kind, key string, cancel context.CancelFunc) (Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byKey[key]; ok && s.jobs[id].snap.State != Failed {
		return s.jobs[id].snap, false, nil
	}
	if len(s.jobs) >= s.max && !s.evictFinishedLocked() {
		return Snapshot{}, false, ErrFull
	}
	s.seq++
	j := &job{snap: Snapshot{ID: fmt.Sprintf("j%06d", s.seq), Kind: kind, Key: key, State: Queued}, cancel: cancel}
	s.jobs[j.snap.ID] = j
	s.byKey[key] = j.snap.ID
	s.order = append(s.order, j.snap.ID)
	s.count[Queued]++
	return j.snap, true, nil
}

// evictFinishedLocked removes the oldest terminal job, reporting whether
// a slot was freed.
func (s *Store) evictFinishedLocked() bool {
	for i, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue // already deleted; compacted below
		}
		if j.snap.State.terminal() {
			s.removeLocked(id)
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

// removeLocked drops a job from the maps and state counts (not from
// order; callers own that slice's compaction). The key stays mapped when
// a later job for it has taken over.
func (s *Store) removeLocked(id string) {
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	delete(s.jobs, id)
	if s.byKey[j.snap.Key] == id {
		delete(s.byKey, j.snap.Key)
	}
	s.count[j.snap.State]--
}

// Get returns a job's snapshot.
func (s *Store) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snap, true
}

// Start moves a queued job to Running. It reports false when the job is
// gone or already terminal (e.g. canceled while queued) — the caller
// should abandon the computation.
func (s *Store) Start(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State != Queued {
		return false
	}
	s.setStateLocked(j, Running)
	return true
}

// Progress updates a running job's counters.
func (s *Store) Progress(id string, done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && !j.snap.State.terminal() {
		j.snap.Done, j.snap.Total = done, total
	}
}

// Finish completes a job with its prepared result body. A job already
// terminal (canceled) keeps its first outcome.
func (s *Store) Finish(id string, result []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State.terminal() {
		return
	}
	j.snap.Result = result
	j.snap.Done = j.snap.Total
	s.setStateLocked(j, Done)
}

// Fail marks a job Failed with a reason, unless it is already terminal.
func (s *Store) Fail(id, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State.terminal() {
		return
	}
	j.snap.Error = reason
	s.setStateLocked(j, Failed)
}

// Cancel fails an unfinished job with "canceled" and fires its
// CancelFunc; a terminal job is returned unchanged.
func (s *Store) Cancel(id string) (Snapshot, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Snapshot{}, false
	}
	var cancel context.CancelFunc
	if !j.snap.State.terminal() {
		j.snap.Error = "canceled"
		s.setStateLocked(j, Failed)
		cancel = j.cancel
	}
	snap := j.snap
	s.mu.Unlock()
	if cancel != nil {
		cancel() // outside the lock; may synchronously wake the worker
	}
	return snap, true
}

// Delete cancels (if needed) and removes a job, returning its final
// snapshot. Later Gets of the ID report not-found; a later Create with
// the same key starts fresh.
func (s *Store) Delete(id string) (Snapshot, bool) {
	snap, ok := s.Cancel(id)
	if !ok {
		return Snapshot{}, false
	}
	s.mu.Lock()
	s.removeLocked(id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	return snap, true
}

// setStateLocked transitions a job's state, keeping the counts exact.
func (s *Store) setStateLocked(j *job, next State) {
	s.count[j.snap.State]--
	j.snap.State = next
	s.count[next]++
}

// All returns every job's snapshot in creation order — the ledger view
// behind GET /v1/jobs. Result bodies are omitted (they can be large;
// pollers fetch them by ID).
func (s *Store) All() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			snap := j.snap
			snap.Result = nil
			out = append(out, snap)
		}
	}
	return out
}

// Len returns the table occupancy.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Count returns how many jobs are in one state.
func (s *Store) Count(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[st]
}
