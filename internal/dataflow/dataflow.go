// Package dataflow computes the gen/use sets the paper's pre-selection
// algorithm (Fig. 3) is built on: "We use gen[···] and use[···] as it is
// defined in [16]" (Aho/Sethi/Ullman). For a cluster c,
//
//   - use[c] is the set of variables with an upward-exposed use in c
//     (read on some path before any write inside c) — the data the cluster
//     consumes from the outside, and
//   - gen[c] is the set of variables c writes — the data the cluster can
//     pass to later clusters.
//
// Arrays participate as whole variables (a Load contributes the array to
// use, a Store to gen); their transfer width is their element count, which
// is what makes the bus-traffic estimate of Fig. 3 meaningful for the
// data-oriented applications the paper targets.
//
// Sets are dense BitSets over a per-function interned namespace (Index);
// all set algebra is word-wise and allocation-free in the -With forms.
package dataflow

import (
	"lppart/internal/cdfg"
)

// Key identifies a variable (scalar or array, global or local) in a
// program-wide namespace.
type Key struct {
	Global bool
	ID     int
}

// keyOfVar converts a scalar reference.
func keyOfVar(r cdfg.VarRef) Key { return Key{Global: r.Global, ID: r.ID} }

// keyOfArr converts an array reference.
func keyOfArr(a cdfg.ArrRef) Key { return Key{Global: a.Global, ID: a.ID} }

// GenUse computes gen[r] and use[r] for a region over a fresh Index of
// the region's function. use is block-precise: within each basic block, a
// read counts only if the variable has not been written earlier in that
// block (upward-exposed); the per-block sets are then unioned, which is
// conservative across blocks. Compiler temporaries never escape a
// statement, so they are excluded from both sets.
func GenUse(p *cdfg.Program, r *cdfg.Region) (gen, use BitSet) {
	return GenUseOn(NewIndex(p, r.Func), r)
}

// GenUseOn is GenUse over a caller-provided Index (which must intern
// (p, r.Func)), letting several analyses of one function share the
// namespace and combine their sets without re-interning.
func GenUseOn(ix *Index, r *cdfg.Region) (gen, use BitSet) {
	gen, use = ix.NewBitSet(), ix.NewBitSet()
	written := ix.NewBitSet()
	var uses []cdfg.VarRef
	f := r.Func
	for _, bid := range r.Blocks {
		b := f.Block(bid)
		written.Clear()
		for i := range b.Ops {
			op := &b.Ops[i]
			// Reads first.
			uses = op.AppendUses(uses[:0])
			for _, u := range uses {
				ki := ix.IndexOf(keyOfVar(u))
				if !written.ContainsIndex(ki) && !ix.IsTemp(ki) {
					use.AddIndex(ki)
				}
			}
			if op.Code == cdfg.Load {
				ki := ix.IndexOf(keyOfArr(op.Arr))
				// A store to an array does not kill loads (partial
				// definition), so array loads are always uses.
				if !ix.IsTemp(ki) {
					use.AddIndex(ki)
				}
			}
			// Then writes.
			if op.Code == cdfg.Store {
				ki := ix.IndexOf(keyOfArr(op.Arr))
				if !ix.IsTemp(ki) {
					gen.AddIndex(ki)
				}
				continue
			}
			if d := op.Def(); d.Valid() {
				ki := ix.IndexOf(keyOfVar(d))
				written.AddIndex(ki)
				if !ix.IsTemp(ki) {
					gen.AddIndex(ki)
				}
			}
		}
	}
	return gen, use
}

// FuncEffect summarizes a whole function's reads and writes of globals
// (locals cannot escape). Used to account for call side effects when a
// cluster's surroundings include calls. The returned sets live in f's own
// namespace but contain only global-prefix slots, so they union into any
// other Index of the same program.
func FuncEffect(p *cdfg.Program, f *cdfg.Function) (gen, use BitSet) {
	gen, use = GenUse(p, f.Root)
	gen.MaskGlobals()
	use.MaskGlobals()
	return gen, use
}

// Surroundings computes, for a candidate cluster r, the gen set of
// everything that can execute before it (gen[C_pred] in Fig. 3 step 1) and
// the use set of everything that can execute after it (use[C_succ] in
// step 3).
//
// The split is textual within the cluster's own function — operations with
// IDs below the cluster's first op are "before", above its last op are
// "after" — while other functions are conservatively counted on both
// sides (their calls may occur before and after), with loop-enclosed
// clusters additionally seeing their own function's other ops on both
// sides (the enclosing loop re-executes them around each invocation).
func Surroundings(p *cdfg.Program, r *cdfg.Region) (genPred, useSucc BitSet) {
	return SurroundingsOn(NewIndex(p, r.Func), r)
}

// SurroundingsOn is Surroundings over a caller-provided Index (which must
// intern (p, r.Func)).
func SurroundingsOn(ix *Index, r *cdfg.Region) (genPred, useSucc BitSet) {
	p := ix.p
	genPred, useSucc = ix.NewBitSet(), ix.NewBitSet()
	f := r.Func
	maxID := -1
	for _, b := range f.Blocks {
		for i := range b.Ops {
			if b.Ops[i].ID > maxID {
				maxID = b.Ops[i].ID
			}
		}
	}
	inCluster := make([]bool, maxID+1)
	first, last := -1, -1
	for _, op := range r.Ops() {
		inCluster[op.ID] = true
		if first == -1 || op.ID < first {
			first = op.ID
		}
		if op.ID > last {
			last = op.ID
		}
	}
	enclosedInLoop := false
	for anc := r.Parent; anc != nil; anc = anc.Parent {
		if anc.Kind == cdfg.RegionLoop {
			enclosedInLoop = true
		}
	}
	var uses []cdfg.VarRef
	record := func(op *cdfg.Op, before, after bool) {
		if op.Code == cdfg.Store {
			if before {
				genPred.Add(keyOfArr(op.Arr))
			}
		} else if d := op.Def(); d.Valid() {
			if ki := ix.IndexOf(keyOfVar(d)); !ix.IsTemp(ki) && before {
				genPred.AddIndex(ki)
			}
		}
		if after {
			uses = op.AppendUses(uses[:0])
			for _, u := range uses {
				if ki := ix.IndexOf(keyOfVar(u)); !ix.IsTemp(ki) {
					useSucc.AddIndex(ki)
				}
			}
			if op.Code == cdfg.Load {
				useSucc.Add(keyOfArr(op.Arr))
			}
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.ID < len(inCluster) && inCluster[op.ID] {
				continue
			}
			before := op.ID < first || enclosedInLoop
			after := op.ID > last || enclosedInLoop
			record(op, before, after)
		}
	}
	// Other functions: their global effects may happen on either side.
	// FuncEffect sets are globals-only, so the cross-index union is safe.
	for _, other := range p.Funcs {
		if other == f {
			continue
		}
		g, u := FuncEffect(p, other)
		genPred.UnionWith(g)
		useSucc.UnionWith(u)
	}
	return genPred, useSucc
}
