// Package scratch recycles per-call working state: the ISS's data
// memory, the scheduler's, binder's and exact solver's workspaces, and
// the growth buffers cdfg.Build emits a function's ops into and
// codegen.Compile emits code into (each copies its result out at exact
// size).
//
// A bare sync.Pool strands such state: it keeps a Put in the putting P's
// private slot, where another P's Get does not look, two GCs empty it,
// and under the race detector it drops a random quarter of the Puts. A
// Pool is a mutex-guarded LIFO free list instead: every Put is visible
// to the next Get on any goroutine, for the life of the process, and the
// value put back last comes back first, so a serial caller finds its
// own scratch again, and so does a caller that released a larger value
// last (the ISS's memories). The list never holds more values than were
// out at once.
package scratch

import "sync"

// Pool recycles values of type T. The zero Pool is empty and ready for
// use; a Pool must not be copied after first use.
type Pool[T any] struct {
	// New, when set, builds the value Get returns when nothing is
	// recycled; without it such a Get returns nil.
	New func() *T

	mu   sync.Mutex
	free []*T // LIFO: the last value put back is on top
}

// Get takes the value put back last, else New's. The caller owns it
// until Put and must reset whatever state it relies on.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	if p.New == nil {
		return nil
	}
	return p.New()
}

// Put puts v on top of the free list. The caller must not use v
// afterwards.
func (p *Pool[T]) Put(v *T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
