// Package partition implements the paper's primary contribution: the low
// power hardware/software partitioning algorithm of Fig. 1, with the
// bus-traffic-based cluster pre-selection of Fig. 3. The utilization-rate
// and GEQ computation of Fig. 4 lives in internal/asic (it is the datapath
// binding); this package drives it.
package partition

import (
	"lppart/internal/cdfg"
	"lppart/internal/dataflow"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// Traffic is the Fig. 3 bus-transfer estimate of one candidate cluster.
type Traffic struct {
	// WordsIn is N_Trans,µP->mem: data generated before the cluster and
	// used inside it (|gen[C_pred] ∩ use[c_i]| weighted by word counts).
	WordsIn int
	// WordsOut is N_Trans,ASIC->mem: data generated inside and used
	// after (|gen[c_i] ∩ use[C_succ]|).
	WordsOut int
	// SynergyIn/SynergyOut are the step 2/4 discounts that apply when
	// the preceding/succeeding sibling cluster is also implemented in
	// hardware (|gen[c_{i-1}] ∩ use[c_i]| and |gen[c_i] ∩ use[c_{i+1}]|).
	SynergyIn  int
	SynergyOut int
	// Energy is E_Trans,µPcore<->ASICcore per invocation set (step 5),
	// without synergy discounts.
	Energy units.Energy
}

// EffectiveWords returns the transfer volume after synergy discounts,
// given whether the neighbouring clusters are in hardware.
func (t Traffic) EffectiveWords(prevInHW, nextInHW bool) (in, out int) {
	in, out = t.WordsIn, t.WordsOut
	if prevInHW {
		in -= t.SynergyIn
		if in < 0 {
			in = 0
		}
	}
	if nextInHW {
		out -= t.SynergyOut
		if out < 0 {
			out = 0
		}
	}
	return in, out
}

// EstimateTraffic runs the Fig. 3 algorithm for one candidate cluster.
// prev and next are the neighbouring sibling clusters (c_{i-1}, c_{i+1});
// either may be nil.
func EstimateTraffic(p *cdfg.Program, c *cdfg.Region, prev, next *cdfg.Region, lib *tech.Library) Traffic {
	return estimateTrafficOn(dataflow.NewIndex(p, c.Func), c, prev, next, lib)
}

// estimateTrafficOn is EstimateTraffic over a prebuilt index of c's
// function, shared by all candidates of that function.
func estimateTrafficOn(ix *dataflow.Index, c *cdfg.Region, prev, next *cdfg.Region, lib *tech.Library) Traffic {
	gen, use := dataflow.GenUseOn(ix, c)
	genPred, useSucc := dataflow.SurroundingsOn(ix, c)
	f := c.Func

	var t Traffic
	// Step 1: N_Trans,µPcore->mem = |gen[C_pred] ∩ use[c_i]|.
	t.WordsIn = genPred.Intersect(use).Words()
	// Step 3: N_Trans,ASICcore->mem = |gen[c_i] ∩ use[C_succ]|.
	t.WordsOut = gen.Intersect(useSucc).Words()
	// Steps 2/4: synergy with neighbouring clusters.
	if prev != nil && prev.Func == f {
		genPrev, _ := dataflow.GenUseOn(ix, prev)
		t.SynergyIn = genPrev.Intersect(use).Words()
	}
	if next != nil && next.Func == f {
		_, useNext := dataflow.GenUseOn(ix, next)
		t.SynergyOut = gen.Intersect(useNext).Words()
	}
	// Step 5: each transferred word crosses the bus twice (producer
	// writes shared memory, consumer reads it back).
	perWord := lib.Bus.EReadWord + lib.Bus.EWriteWord
	t.Energy = units.Energy(float64(t.WordsIn+t.WordsOut)) * perWord
	return t
}

// siblings returns the previous and next sibling regions of c in its
// parent's child order (the c_{i-1}/c_{i+1} of Fig. 2b).
func siblings(c *cdfg.Region) (prev, next *cdfg.Region) {
	if c.Parent == nil {
		return nil, nil
	}
	kids := c.Parent.Children
	for i, k := range kids {
		if k == c {
			if i > 0 {
				prev = kids[i-1]
			}
			if i+1 < len(kids) {
				next = kids[i+1]
			}
			return prev, next
		}
	}
	return nil, nil
}
