package serve

import (
	"context"
	"net/http"
	"sync/atomic"
)

// Admission failures, already in wire form: the synchronous endpoints
// serve them as 429 / 503 / 504 and async jobs fail with their message.
var (
	// errQueueFull sheds a request because the wait queue is at its
	// depth limit (429 + Retry-After: better to push back early than to
	// let latency collapse under an unbounded backlog).
	errQueueFull = &apiError{Status: http.StatusTooManyRequests, Err: "queue full"}
	// errDraining sheds a request because the server is shutting down
	// (503; in-flight work still completes).
	errDraining = &apiError{Status: http.StatusServiceUnavailable, Err: "draining"}
	// errQueuedTooLong fails a request whose deadline expired while it
	// waited for a slot.
	errQueuedTooLong = &apiError{Status: http.StatusGatewayTimeout, Err: "deadline exceeded while queued"}
)

// admission is the bounded-concurrency gate in front of the evaluation
// worker pool: at most `workers` computations run at once, at most
// `queueDepth` more may wait for a slot, and everything beyond that is
// shed immediately. The two bounds turn overload into fast, explicit
// 429s instead of an ever-growing goroutine pile.
type admission struct {
	workers    int
	queueDepth int
	slots      chan struct{} // buffered with `workers` tokens
	queued     atomic.Int64  // currently waiting for a slot
	busy       atomic.Int64  // currently holding a slot
	draining   atomic.Bool
}

func newAdmission(workers, queueDepth int) *admission {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	a := &admission{workers: workers, queueDepth: queueDepth,
		slots: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// acquire takes a worker slot, waiting in the bounded queue if none is
// free. It fails fast with errQueueFull past the depth limit,
// errDraining during shutdown, and errQueuedTooLong when the caller's
// deadline expires while queued.
func (a *admission) acquire(ctx context.Context) *apiError {
	if a.draining.Load() {
		return errDraining
	}
	select {
	case <-a.slots:
		a.busy.Add(1)
		return nil
	default:
	}
	if a.queued.Add(1) > int64(a.queueDepth) {
		a.queued.Add(-1)
		return errQueueFull
	}
	defer a.queued.Add(-1)
	select {
	case <-a.slots:
		a.busy.Add(1)
		return nil
	case <-ctx.Done():
		return errQueuedTooLong
	}
}

// release returns a slot.
func (a *admission) release() {
	a.busy.Add(-1)
	a.slots <- struct{}{}
}

// drain stops admitting new work; in-flight holders keep their slots.
func (a *admission) drain() { a.draining.Store(true) }

// queueLen returns the number of requests waiting for a slot.
func (a *admission) queueLen() int64 { return a.queued.Load() }

// busyWorkers returns the number of slots currently held.
func (a *admission) busyWorkers() int64 { return a.busy.Load() }
