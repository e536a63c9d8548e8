package cdfg

import (
	"fmt"
	"sync"

	"lppart/internal/behav"
)

// RegionKind classifies a region of the region tree.
type RegionKind int

// Region kinds, matching the paper's cluster examples ("nested loops,
// if-then-else constructs, functions etc.").
const (
	RegionFunc RegionKind = iota
	RegionLoop
	RegionIf
)

// String names the region kind.
func (k RegionKind) String() string {
	switch k {
	case RegionFunc:
		return "func"
	case RegionLoop:
		return "loop"
	case RegionIf:
		return "if"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Region is a node of the region tree: a structurally delimited code
// segment (function body, loop, or if/else) that is a candidate *cluster*
// for hardware/software partitioning. Blocks lists every basic block that
// belongs to the region, including those of nested child regions.
type Region struct {
	ID       int
	Kind     RegionKind
	Func     *Function
	Label    string // e.g. "main/loop@5:2"
	Pos      behav.Pos
	Entry    int   // entry block ID (loop header / then-else dispatch)
	Blocks   []int // all block IDs in the region, children included
	Children []*Region
	Parent   *Region

	// ops caches the flattened op-pointer list served by Ops(), built
	// once under opsOnce: concurrent searches share one IR. The cache
	// assumes the block *structure* is frozen once analyses start (op
	// contents may still be edited through the cached pointers, which
	// alias the block slices).
	opsOnce sync.Once
	ops     []*Op
}

// Depth returns the nesting depth (the function body is depth 0).
func (r *Region) Depth() int {
	d := 0
	for p := r.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Contains reports whether block id belongs to the region.
func (r *Region) Contains(id int) bool {
	for _, b := range r.Blocks {
		if b == id {
			return true
		}
	}
	return false
}

// Exit returns the unique block outside the region that a region block
// branches to: where control goes when the cluster finishes. The DSL has
// no break or continue, so a region without returns has exactly one exit;
// a function body has none.
func (r *Region) Exit() (int, error) {
	inside := make([]bool, len(r.Func.Blocks))
	for _, bid := range r.Blocks {
		inside[bid] = true
	}
	exit := -1
	for _, bid := range r.Blocks {
		for _, s := range r.Func.Block(bid).Succs() {
			if inside[s] || s == exit {
				continue
			}
			if exit != -1 {
				return 0, fmt.Errorf("cdfg: region %s has multiple exits (b%d, b%d)", r.Label, exit, s)
			}
			exit = s
		}
	}
	if exit == -1 {
		return 0, fmt.Errorf("cdfg: region %s has no exit", r.Label)
	}
	return exit, nil
}

// Overlaps reports whether two regions share blocks, so that they cannot
// both move to hardware. The region tree is laminar (a child's blocks lie
// inside its parent's, siblings share none; Verify checks both), so two
// regions overlap exactly when one is the other or its ancestor.
func (r *Region) Overlaps(o *Region) bool {
	return r.encloses(o) || o.encloses(r)
}

// encloses reports whether r is o or one of its ancestors.
func (r *Region) encloses(o *Region) bool {
	for ; o != nil; o = o.Parent {
		if o == r {
			return true
		}
	}
	return false
}

// Ops returns pointers to every operation in the region, in block order.
// The slab is built once per region and cached; callers must not modify
// the returned slice. Ops is safe for concurrent use.
func (r *Region) Ops() []*Op {
	r.opsOnce.Do(func() {
		n := 0
		for _, bid := range r.Blocks {
			n += len(r.Func.Block(bid).Ops)
		}
		r.ops = make([]*Op, 0, n)
		for _, bid := range r.Blocks {
			b := r.Func.Block(bid)
			for i := range b.Ops {
				r.ops = append(r.ops, &b.Ops[i])
			}
		}
	})
	return r.ops
}

// HasCalls reports whether the region contains any Call operation; such
// regions cannot be moved to an ASIC core (the ASIC cannot call back into
// µP software).
func (r *Region) HasCalls() bool {
	for _, op := range r.Ops() {
		if op.Code == Call {
			return true
		}
	}
	return false
}

// HasReturns reports whether the region contains a Ret operation.
// Non-function regions with early returns have multiple exits and are not
// eligible clusters.
func (r *Region) HasReturns() bool {
	for _, op := range r.Ops() {
		if op.Code == Ret {
			return true
		}
	}
	return false
}

// Walk visits the region and all descendants in preorder.
func (r *Region) Walk(visit func(*Region)) {
	visit(r)
	for _, c := range r.Children {
		c.Walk(visit)
	}
}

// AllRegions flattens the tree rooted at r in preorder.
func (r *Region) AllRegions() []*Region {
	var all []*Region
	r.Walk(func(x *Region) { all = append(all, x) })
	return all
}

// Regions returns every region of the program in deterministic order
// (function declaration order, preorder within each function).
func (p *Program) Regions() []*Region {
	var all []*Region
	for _, f := range p.Funcs {
		if f.Root != nil {
			all = append(all, f.Root.AllRegions()...)
		}
	}
	return all
}

// RegionByLabel finds a region by its label, or returns nil.
func (p *Program) RegionByLabel(label string) *Region {
	for _, r := range p.Regions() {
		if r.Label == label {
			return r
		}
	}
	return nil
}
