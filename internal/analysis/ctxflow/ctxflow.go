// Package ctxflow implements the lppartvet pass that keeps cancellation
// plumbed end to end. PR 4/5 threaded context.Context through the
// service and evaluation layers (PartitionCtx, EvaluateCtx, MapCtx,
// the serve admission queue); this pass makes the discipline static:
//
//  1. A function holding a context must forward it. Passing a nil
//     context to a callee that accepts one, or calling the ctx-less
//     convenience variant of a function when the same package exports a
//     <Name>Ctx variant, silently detaches the callee from
//     cancellation.
//  2. context.Background()/context.TODO() mint fresh root contexts;
//     outside package main and tests they sever the caller's
//     cancellation chain. The sanctioned wrapper entry points
//     (explore.Map and friends) carry //lint:ctx acknowledgements.
//     When the enclosing function holds a context, the suggested fix
//     replaces the call with that variable.
//  3. In the service packages (serve, jobs, explore) a blocking channel
//     operation inside a ctx-holding function — a select without a
//     ctx.Done() case or default, or a bare send/receive outside any
//     select — can outlive the request that issued it.
//
// Escape hatch: //lint:ctx on the flagged line or its enclosing
// statement.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"lppart/internal/analysis"
)

// blockingGated names the packages where rule 3 (channel blocking)
// applies: the long-lived service layers.
var blockingGated = map[string]bool{
	"serve":   true,
	"jobs":    true,
	"explore": true,
}

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "enforce context forwarding: no nil contexts or ctx-less variants when the caller " +
		"holds a ctx, no context.Background()/TODO() outside main and tests, and no " +
		"ctx-blind channel blocking in serve/jobs/explore; acknowledge with //lint:ctx",
	Run: run,
}

func run(pass *analysis.Pass) error {
	v := &visitor{
		pass:     pass,
		isMain:   pass.Pkg.Name() == "main",
		blocking: blockingGated[pass.Pkg.Name()],
		selComm:  make(map[ast.Node]bool),
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			v.walkFunc(fd.Type, fd.Body, nil)
		}
	}
	return nil
}

// visitor walks one file's functions tracking the innermost visible
// context variable.
type visitor struct {
	pass     *analysis.Pass
	isMain   bool
	blocking bool
	// selComm marks send/receive nodes that are the communication
	// operand of a select clause — rule 3 judges them at the select
	// level, not as bare operations.
	selComm map[ast.Node]bool
}

// ctxParam finds a context.Context parameter's object in a signature.
func (v *visitor) ctxParam(ft *ast.FuncType) *types.Var {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj, ok := v.pass.TypesInfo.Defs[name].(*types.Var); ok &&
				analysis.IsContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// walkFunc walks a body with ctx being the visible context variable
// (possibly inherited from an enclosing function, possibly nil).
func (v *visitor) walkFunc(ft *ast.FuncType, body *ast.BlockStmt, ctx *types.Var) {
	if own := v.ctxParam(ft); own != nil {
		ctx = own
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			v.walkFunc(n.Type, n.Body, ctx)
			return false
		case *ast.CallExpr:
			v.visitCall(n, ctx)
		case *ast.SelectStmt:
			v.visitSelect(n, ctx)
		case *ast.SendStmt:
			if !v.selComm[n] {
				v.blockingOp(n.Pos(), "channel send", ctx)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !v.selComm[n] && !v.isDoneRecv(n.X) {
				v.blockingOp(n.OpPos, "channel receive", ctx)
			}
		}
		return true
	})
}

// visitCall applies rules 1 and 2 to one call.
func (v *visitor) visitCall(call *ast.CallExpr, ctx *types.Var) {
	fn := calleeOf(v.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	// Rule 2: fresh root contexts.
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO") {
		if !v.isMain && !v.pass.Suppressed(call.Pos(), "ctx") {
			if ctx != nil {
				v.pass.ReportFix(call.Pos(), analysis.SuggestedFix{
					Message: "forward " + ctx.Name(),
					Edits: []analysis.TextEdit{{
						Pos: call.Pos(), End: call.End(), NewText: ctx.Name(),
					}},
				}, "context.%s() severs the caller's cancellation chain; forward %s instead "+
					"(//lint:ctx to sanction a root context)", fn.Name(), ctx.Name())
			} else {
				v.pass.Reportf(call.Pos(),
					"context.%s() outside main and tests severs cancellation; accept and "+
						"forward a ctx parameter (//lint:ctx to sanction a root context)", fn.Name())
			}
		}
		return
	}
	if ctx == nil {
		return
	}
	// Rule 1a: nil in a context parameter slot.
	if sig, ok := v.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok {
		params := sig.Params()
		for i, arg := range call.Args {
			if i >= params.Len() {
				break
			}
			if !analysis.IsContextType(params.At(i).Type()) {
				continue
			}
			if tv, ok := v.pass.TypesInfo.Types[arg]; ok && tv.IsNil() &&
				!v.pass.Suppressed(call.Pos(), "ctx") {
				v.pass.ReportFix(arg.Pos(), analysis.SuggestedFix{
					Message: "forward " + ctx.Name(),
					Edits: []analysis.TextEdit{{
						Pos: arg.Pos(), End: arg.End(), NewText: ctx.Name(),
					}},
				}, "nil context passed to %s while %s is in scope; forward it",
					fn.Name(), ctx.Name())
			}
		}
	}
	// Rule 1b: ctx-less convenience variant while holding a ctx.
	if analysis.AcceptsContext(fn) {
		return // the callee takes a ctx; rule 1a covered the nil case
	}
	if fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // variant lookup is for package-level functions
	}
	if alt, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Ctx").(*types.Func); ok &&
		analysis.AcceptsContext(alt) && !v.pass.Suppressed(call.Pos(), "ctx") {
		v.pass.Reportf(call.Pos(),
			"%s.%s drops the in-scope context %s; call %s instead",
			fn.Pkg().Name(), fn.Name(), ctx.Name(), alt.Name())
	}
}

// visitSelect applies rule 3 to a select statement and records its
// communication operands.
func (v *visitor) visitSelect(sel *ast.SelectStmt, ctx *types.Var) {
	hasDefault, hasDone := false, false
	for _, stmt := range sel.Body.List {
		clause, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			hasDefault = true
			continue
		}
		v.selComm[clause.Comm] = true
		switch c := clause.Comm.(type) {
		case *ast.SendStmt:
			v.selComm[c] = true
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				v.selComm[u] = true
				if v.isDoneRecv(u.X) {
					hasDone = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range c.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					v.selComm[u] = true
					if v.isDoneRecv(u.X) {
						hasDone = true
					}
				}
			}
		}
	}
	if hasDefault || hasDone {
		return
	}
	if v.blocking && ctx != nil && !v.pass.Suppressed(sel.Pos(), "ctx") {
		v.pass.Reportf(sel.Pos(),
			"select in a ctx-holding function has neither a <-%s.Done() case nor a default; "+
				"the wait cannot be cancelled (//lint:ctx to sanction)", ctx.Name())
	}
}

// blockingOp reports a bare blocking channel operation (rule 3).
func (v *visitor) blockingOp(pos token.Pos, what string, ctx *types.Var) {
	if !v.blocking || ctx == nil || v.pass.InTestFile(pos) || v.pass.Suppressed(pos, "ctx") {
		return
	}
	v.pass.Reportf(pos,
		"bare %s in a ctx-holding function blocks outside any select; "+
			"wrap in a select with a <-%s.Done() case (//lint:ctx to sanction)",
		what, ctx.Name())
}

// isDoneRecv reports whether e is a call to the Done method of a
// context.Context value.
func (v *visitor) isDoneRecv(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return analysis.IsContextType(v.pass.TypesInfo.TypeOf(sel.X))
}

// calleeOf resolves a call's target function object, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
