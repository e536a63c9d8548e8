// Package explore is the deterministic fan-out engine behind the
// design-space exploration surfaces: the whole-application sweeps of
// cmd/report (Table 1, Figure 6, ablations), the per-geometry searches
// of internal/dse and internal/milp, the recorded-trace geometry sweeps
// of internal/trace and the designer-interaction loops of
// examples/designspace.
//
// The engine makes one promise the callers all rely on: the result of a
// fan-out is a pure function of the inputs — identical at any worker
// count, including 1. It achieves that by construction rather than by
// coordination: every work item owns a pre-allocated result slot, items
// are handed out by an atomic cursor, and the caller only observes the
// slots after the pool has drained, in input order. Work functions must
// be independent (no shared mutable state); everything they need travels
// in through the item and out through the return value.
package explore

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the fan-out width used when a caller passes a
// non-positive worker count: one worker per available CPU. This is the
// one sanctioned host probe in the library (nondetsource pass): the
// engine's contract — and the determinism regression tests — guarantee
// the worker count cannot change any result.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) } //lint:nondet sizing only; results are worker-count-invariant

// Map evaluates fn over every item on a bounded worker pool and returns
// the results in input order. workers <= 0 selects DefaultWorkers();
// workers == 1 runs inline with no goroutines. fn receives the item's
// index alongside the item so it can label work without capturing state.
//
// Every item is evaluated even when some fail; the returned error is the
// lowest-index failure, so the (result, error) pair is deterministic at
// any worker count.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, items, fn) //lint:ctx non-Ctx convenience wrapper
}

// MapCtx is Map with cancellation: every worker checks ctx before picking
// up its next item, so a cancelled (or deadline-expired) fan-out stops
// scheduling new work as soon as the in-flight items return. A cancelled
// call returns (nil, ctx.Err()) — cancellation wins over any item error,
// so the outcome stays deterministic: callers observe either the complete,
// worker-count-invariant Map result or the bare context error, never a
// partial mixture that depends on how far the pool had progressed.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range items {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out[i], errs[i] = fn(i, items[i])
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(cursor.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i, items[i])
				}
			}()
		}
		wg.Wait()
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
