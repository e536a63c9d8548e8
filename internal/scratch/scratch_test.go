package scratch

import (
	"runtime"
	"sync"
	"testing"
)

// TestPutSurvivesGCZeroAlloc: the value put back is on the free list,
// which no GC empties, so a Get after two GCs (which drain a sync.Pool)
// finds it.
func TestPutSurvivesGCZeroAlloc(t *testing.T) {
	var p Pool[[]int32]
	v := new([]int32)
	p.Put(v)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != v {
		t.Fatalf("Get after two GCs = %p, want the value put back %p", got, v)
	}
	if got := p.Get(); got != nil {
		t.Errorf("Get on an emptied pool with no New = %p, want nil", got)
	}
}

func TestNewFillsAnEmptyPool(t *testing.T) {
	calls := 0
	p := Pool[int]{New: func() *int { calls++; return new(int) }}
	a := p.Get()
	p.Put(a)
	if b := p.Get(); b != a || calls != 1 {
		t.Errorf("Get after Put: same value %v, New called %d times, want true, 1", b == a, calls)
	}
}

// TestPutVisibleOnAnotherGoroutine: every value put back, on any
// goroutine, comes back from the next Gets, the last one put first.
func TestPutVisibleOnAnotherGoroutine(t *testing.T) {
	var p Pool[int]
	vals := []*int{new(int), new(int), new(int)}
	for _, v := range vals {
		done := make(chan struct{})
		go func() {
			p.Put(v)
			close(done)
		}()
		<-done
	}
	runtime.GC()
	runtime.GC()
	for i := len(vals) - 1; i >= 0; i-- {
		if got := p.Get(); got != vals[i] {
			t.Fatalf("Get %d = %p, want %p (put back %d-th)", len(vals)-1-i, got, vals[i], i)
		}
	}
	if got := p.Get(); got != nil {
		t.Errorf("Get on an emptied pool with no New = %p, want nil", got)
	}
}

// TestNoValueHasTwoHolders: goroutines that mark a value on Get and
// clear the mark before Put never find a value already marked.
func TestNoValueHasTwoHolders(t *testing.T) {
	type slot struct{ held bool }
	p := Pool[slot]{New: func() *slot { return new(slot) }}
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := p.Get()
				if s.held {
					t.Error("Get handed out a value another holder has not put back")
					return
				}
				s.held = true
				runtime.Gosched()
				s.held = false
				p.Put(s)
			}
		}()
	}
	wg.Wait()
}

// TestGetPutZeroAlloc: a warm Get/Put cycle allocates nothing.
func TestGetPutZeroAlloc(t *testing.T) {
	p := Pool[[64]int]{New: func() *[64]int { return new([64]int) }}
	p.Put(p.Get())
	if a := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); a != 0 {
		t.Errorf("warm Get/Put allocates %v times, want 0", a)
	}
}
