// Package hotalloc implements the lppartvet pass that makes the repo's
// zero-alloc hot-path contract statically checked. PR 6 flattened the
// schedule/bind/price inner loops so the warm paths perform no heap
// allocation, but until this pass the invariant lived in a handful of
// testing.AllocsPerRun tests: any call site outside those tests could
// silently put an allocation back on the hot path.
//
// The pass works interprocedurally. Functions annotated with a
// `//lint:hotpath` comment on (or directly above) their declaration —
// sched.ScheduleBlock, asic.(*Core).RunASIC, partition.(*Priced).Add and
// Remove, partition.(*Evaluator).EvalInto, and the DFS body of the
// dse explorer — are the hot roots. The analysis computes their call
// closure over the whole-module call graph (closures bound to local
// variables are first-class nodes, so a hot DFS body pulls its helper
// closures in) and flags every allocation-inducing construct inside the
// closure: make/new, escaping (&T{...}) and slice/map composite
// literals, append to slices with no visible capacity reservation, fmt
// calls, non-constant string concatenation, escaping closures that
// capture variables, and interface boxing of non-pointer values.
//
// Escape hatch: `//lint:alloc <why>` on the flagged construct (or the
// enclosing multi-line statement) acknowledges a deliberate allocation
// — the one returned result, amortized slab growth, an error path. On a
// function declaration, the same marker exempts the whole body and
// stops closure traversal through it: an acknowledged cold-fill
// boundary such as a memo miss (partition.scheduleBind), where the warm
// path provably never enters.
package hotalloc

import (
	"lppart/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation-inducing constructs (make/new, escaping or slice/map literals, " +
		"capacity-less append, fmt calls, string concatenation, capturing closures, interface " +
		"boxing) in the call closure of //lint:hotpath roots; acknowledge deliberate " +
		"allocations with //lint:alloc",
	Run: run,
}

func run(pass *analysis.Pass) error {
	prog := pass.Prog
	if prog == nil {
		return nil
	}
	for _, node := range prog.Nodes {
		if node.Pkg.Types != pass.Pkg || !node.Facts.Hot || node.Facts.AllocExempt {
			continue
		}
		for _, site := range node.Allocs {
			if pass.InTestFile(site.Pos) || pass.Suppressed(site.Pos, "alloc") {
				continue
			}
			pass.Reportf(site.Pos,
				"%s in hot-path closure of %s (via %s); hoist into a reused workspace "+
					"or acknowledge with //lint:alloc",
				site.What, node.Name, node.Facts.HotVia)
		}
	}
	return nil
}
