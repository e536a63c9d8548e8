// Package detrange implements the lppartvet pass that guards the repo's
// determinism contract: in packages that produce user-visible or
// memoized results (partition decision trails, schedules, Table 1 rows,
// Figure 6, exploration fan-outs, ASIC netlists, cache profiles),
// iterating a Go map with `for ... := range m` visits keys in a
// different order on every run, so any order-sensitive work inside the
// loop — floating-point accumulation, slice appends, string building,
// first-wins selection — silently breaks byte-identical output.
//
// The pass flags every range over a map-typed expression in the gated
// packages. Loops that are genuinely order-insensitive (pure set
// insertion, max/min over commutative data) are acknowledged in source
// with a `//lint:ordered` comment on the loop line or the line above;
// everything else must iterate sorted keys (the dataflow.Set.Keys
// pattern) instead.
package detrange

import (
	"go/ast"
	"go/types"

	"lppart/internal/analysis"
)

// gated names the result-producing packages the determinism contract
// covers. Gating is by package name so fixture packages participate.
var gated = map[string]bool{
	"partition": true,
	"sched":     true,
	"system":    true,
	"report":    true,
	"explore":   true,
	"asic":      true,
	"stackdist": true,
	"serve":     true,
	"metrics":   true,
	"dse":       true,
	"jobs":      true,
	"milp":      true,
}

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flag nondeterministic map iteration in result-producing packages " +
		"(partition, sched, system, report, explore, asic, stackdist, " +
		"serve, metrics, dse, jobs, milp); " +
		"iterate sorted keys or acknowledge order-insensitive loops with //lint:ordered",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !gated[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.InTestFile(rs.Pos()) || pass.Suppressed(rs.Pos(), "ordered") {
				return true
			}
			pass.Reportf(rs.Pos(),
				"nondeterministic iteration over map %s in result-producing package %s; "+
					"iterate sorted keys or annotate //lint:ordered if the loop is order-insensitive",
				types.TypeString(t, types.RelativeTo(pass.Pkg)), pass.Pkg.Name())
			return true
		})
	}
	return nil
}
