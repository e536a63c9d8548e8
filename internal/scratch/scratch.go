// Package scratch recycles per-call working state: the ISS's data
// memory and the scheduler's, binder's and exact solver's workspaces.
//
// A bare sync.Pool strands such state: it keeps a Put in the putting P's
// private slot, two GCs empty it, and under the race detector it drops a
// random quarter of the Puts. A Pool therefore keeps the last value put
// back as a spare outside its sync.Pool, so a serial caller always finds
// its scratch again, for the life of the process; so does a caller that
// released a larger value last (the ISS's memories). The value a Put
// displaces goes to the sync.Pool, for concurrent callers.
package scratch

import (
	"sync"
	"sync/atomic"
)

// Pool recycles values of type T. The zero Pool is empty and ready for
// use; a Pool must not be copied after first use.
type Pool[T any] struct {
	// New, when set, builds the value Get returns when nothing is
	// recycled; without it such a Get returns nil.
	New func() *T

	spare atomic.Pointer[T]
	pool  sync.Pool // of *T
}

// Get takes the spare, else a value from the sync.Pool, else New's. The
// caller owns it until Put and must reset whatever state it relies on.
func (p *Pool[T]) Get() *T {
	if v := p.spare.Swap(nil); v != nil {
		return v
	}
	if v, ok := p.pool.Get().(*T); ok {
		return v
	}
	if p.New == nil {
		return nil
	}
	return p.New()
}

// Put makes v the spare and moves the value it displaces to the
// sync.Pool. The caller must not use v afterwards.
func (p *Pool[T]) Put(v *T) {
	if old := p.spare.Swap(v); old != nil {
		p.pool.Put(old)
	}
}
