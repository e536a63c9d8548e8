package partition

import (
	"fmt"
	"math"
	"testing"
)

// evalFields compares every observable field of two SetEvals exactly
// (float equality included: the delta path must be byte-identical, not
// approximately equal).
func evalFields(t *testing.T, tag string, full, delta *SetEval) {
	t.Helper()
	if (full.Err == nil) != (delta.Err == nil) {
		t.Fatalf("%s: Err mismatch: %v vs %v", tag, full.Err, delta.Err)
	}
	if full.Reason != delta.Reason {
		t.Errorf("%s: Reason %q vs %q", tag, full.Reason, delta.Reason)
	}
	if full.Binding != delta.Binding {
		t.Errorf("%s: Binding pointers differ (the pair cache should share one)", tag)
	}
	if full.UASIC != delta.UASIC || full.UMuP != delta.UMuP {
		t.Errorf("%s: U mismatch: (%v,%v) vs (%v,%v)", tag, full.UASIC, full.UMuP, delta.UASIC, delta.UMuP)
	}
	if full.EASIC != delta.EASIC || full.EMuPSaved != delta.EMuPSaved {
		t.Errorf("%s: energy mismatch: (%v,%v) vs (%v,%v)", tag, full.EASIC, full.EMuPSaved, delta.EASIC, delta.EMuPSaved)
	}
	if full.EstCycles != delta.EstCycles {
		t.Errorf("%s: EstCycles %d vs %d", tag, full.EstCycles, delta.EstCycles)
	}
	if full.GEQ != delta.GEQ {
		t.Errorf("%s: GEQ %d vs %d", tag, full.GEQ, delta.GEQ)
	}
	if full.OF != delta.OF {
		t.Errorf("%s: OF %v vs %v", tag, full.OF, delta.OF)
	}
	if full.Eligible != delta.Eligible {
		t.Errorf("%s: Eligible %v vs %v", tag, full.Eligible, delta.Eligible)
	}
}

// TestConcurrentPairEvalSharesBinding: repeated evaluations of one pair
// (serial: an Evaluator has one writer) bind it once and hit the cache
// after — the cache holds one pair, and every evaluation shares its
// *asic.Binding and prices the same bits.
func TestConcurrentPairEvalSharesBinding(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	probe, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, pool := probe.Candidates(base)
	if len(pool) == 0 {
		t.Fatal("no candidates")
	}
	// The first resource set the top cluster binds on.
	si := -1
	for s := range probe.Config().ResourceSets {
		if ev, err := probe.Eval(base, pool[0], s, false, false); err == nil && ev.Binding != nil {
			si = s
			break
		}
	}
	if si < 0 {
		t.Fatal("top cluster binds on no resource set")
	}
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	evs := make([]*SetEval, n)
	for i := range evs {
		if evs[i], err = e.Eval(base, pool[0], si, false, false); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.MemoStats(); s.Pairs != 1 || s.Binds != 1 || s.Hits != n-1 {
		t.Errorf("MemoStats = %+v, want 1 pair, 1 bind and %d hits", s, n-1)
	}
	for i, ev := range evs[1:] {
		evalFields(t, fmt.Sprintf("evaluation %d", i+1), evs[0], ev)
		if math.Float64bits(ev.OF) != math.Float64bits(evs[0].OF) {
			t.Errorf("evaluation %d: OF bits %x, want %x", i+1, math.Float64bits(ev.OF), math.Float64bits(evs[0].OF))
		}
	}
}

// TestEvalIntoZeroAlloc: the warm path (pair bound, terms cached) must
// not heap allocate.
func TestEvalIntoZeroAlloc(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, pool := e.Candidates(base)
	if len(pool) == 0 {
		t.Fatal("no candidates")
	}
	c := pool[0]
	var out SetEval
	if err := e.EvalInto(base, c, 0, false, false, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EvalInto(base, c, 0, false, false, &out); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm EvalInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPricedSpliceMatchesPathOrder: Add/Remove splicing must reproduce
// the exact floats of accumulating the same picks in path order from
// scratch, including after backtracking (Remove restores the parent
// snapshot bit-for-bit).
func TestPricedSpliceMatchesPathOrder(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, pool := e.Candidates(base)
	if len(pool) < 2 {
		t.Fatalf("need two candidates, have %d", len(pool))
	}
	evs := make([]*SetEval, len(pool))
	for j, c := range pool {
		ev, err := e.Eval(base, c, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		evs[j] = ev
	}
	// Reference: accumulate picks 0 then 1 functionally.
	ref := NewPriced(base)
	ref.Add(pool[0], evs[0])
	ref.Add(pool[1], evs[1])
	wantE, wantC, wantG := ref.Point()

	// Spliced: descend 0→1, back out twice, then rebuild the same path.
	pr := NewPriced(base)
	pr.Add(pool[0], evs[0])
	pr.Add(pool[1], evs[1])
	pr.Remove()
	pr.Remove()
	if pr.Depth() != 0 {
		t.Fatalf("depth after full unwind = %d", pr.Depth())
	}
	e0, c0, g0 := pr.Point()
	b0 := NewPriced(base)
	be, bc, bg := b0.Point()
	if e0 != be || c0 != bc || g0 != bg {
		t.Errorf("unwound point (%v,%d,%d) != baseline point (%v,%d,%d)", e0, c0, g0, be, bc, bg)
	}
	pr.Add(pool[0], evs[0])
	pr.Add(pool[1], evs[1])
	gotE, gotC, gotG := pr.Point()
	if gotE != wantE || gotC != wantC || gotG != wantG {
		t.Errorf("re-spliced point (%v,%d,%d) != path-order point (%v,%d,%d)",
			gotE, gotC, gotG, wantE, wantC, wantG)
	}
}
