package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function in the program call graph: a declared
// function or method, or a function literal (closures get their own
// nodes so a hot-path root can be a DFS body bound to a local variable).
type FuncNode struct {
	// Pkg is the package holding the function's body.
	Pkg *Package
	// Obj is the declared function object; nil for function literals.
	Obj *types.Func
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Name is the display name: "sched.ScheduleBlock",
	// "partition.(*Priced).Add", "dse.searchGeometry.walk".
	Name string
	// Callees are the statically resolved targets with bodies in the
	// program, in first-call order, deduplicated.
	Callees []*FuncNode
	// ExternCallees are resolved functions without a body in the
	// program (standard library, interface methods), same ordering.
	ExternCallees []*types.Func
	// Allocs are the allocation-inducing constructs syntactically
	// inside this function's own body (nested literals excluded — they
	// have their own nodes).
	Allocs []AllocSite
	// Facts are the bottom-up summaries.
	Facts Facts

	anchor token.Pos // decl keyword or binding-statement position
}

// Facts are the per-function summaries the interprocedural passes
// consume. AcceptsCtx and ReturnsError are derived from the signature;
// Allocates is propagated bottom-up over the call graph.
type Facts struct {
	// AcceptsCtx: some parameter has type context.Context.
	AcceptsCtx bool
	// ReturnsError: some result has type error.
	ReturnsError bool
	// Allocates: the body contains an allocation-inducing construct, or
	// the function calls (transitively) one that does.
	Allocates bool
	// AllocWhy names the first construct or callee responsible.
	AllocWhy string
	// HotRoot: the declaration (or closure binding) carries a
	// //lint:hotpath annotation.
	HotRoot bool
	// Hot: reachable from a hot root over the call graph.
	Hot bool
	// HotVia names the root whose closure first reached this node.
	HotVia string
	// AllocExempt: the declaration carries a //lint:alloc
	// acknowledgement, exempting the whole body from hot-path
	// allocation scanning and stopping closure traversal through it
	// (an acknowledged cold-fill boundary, e.g. a memo miss).
	AllocExempt bool
}

// AllocSite is one allocation-inducing construct.
type AllocSite struct {
	Pos  token.Pos
	What string
}

// Program is the whole-program view: every loaded package, the
// cross-package call graph and the propagated facts.
type Program struct {
	Pkgs  []*Package
	Nodes []*FuncNode // deterministic: package path, then position

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// declOf maps a variable object to the node that declares it
	// (ValueSpec or the defining AssignStmt), for the append-capacity
	// heuristic.
	declOf map[types.Object]ast.Node
	// litBound maps a variable object to the function literal bound to
	// it (name := func(...){...} and friends), for call resolution.
	litBound map[types.Object]*ast.FuncLit
}

// NodeOf returns the node of a declared function, or nil.
func (p *Program) NodeOf(obj *types.Func) *FuncNode { return p.byObj[obj] }

// LitNode returns the node of a function literal, or nil.
func (p *Program) LitNode(lit *ast.FuncLit) *FuncNode { return p.byLit[lit] }

// HotRoots returns the annotated roots in deterministic order.
func (p *Program) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range p.Nodes {
		if n.Facts.HotRoot {
			roots = append(roots, n)
		}
	}
	return roots
}

// BuildProgram assembles the call graph and facts over the given
// packages. Only functions whose bodies are among pkgs become nodes;
// everything else resolved (stdlib, interface methods) lands in
// ExternCallees. The result is deterministic: nodes, callees and sites
// follow source order.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		byObj:    make(map[*types.Func]*FuncNode),
		byLit:    make(map[*ast.FuncLit]*FuncNode),
		declOf:   make(map[types.Object]ast.Node),
		litBound: make(map[types.Object]*ast.FuncLit),
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	// Pass 1: nodes for declarations, variable-declaration index, and
	// literal bindings (needed before edges so recursion through a
	// bound closure resolves).
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			prog.indexFile(pkg, f)
		}
	}
	// Pass 2: literal nodes + edges + local alloc sites.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			markers := markerLines(pkg.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := prog.byObj[obj]
				b := &builder{prog: prog, pkg: pkg, markers: markers}
				b.walkFunc(node, fd.Body)
			}
		}
	}
	prog.finish()
	return prog
}

// indexFile creates declaration nodes and records variable declarations
// and literal bindings for one file.
func (prog *Program) indexFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		node := &FuncNode{
			Pkg: pkg, Obj: obj, Decl: fd,
			Name:   displayName(pkg, obj),
			anchor: fd.Pos(),
		}
		node.Facts.AcceptsCtx, node.Facts.ReturnsError = signatureFacts(obj.Type())
		prog.byObj[obj] = node
		prog.Nodes = append(prog.Nodes, node)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				prog.declOf[obj] = n
				if i < len(n.Values) {
					if lit, ok := n.Values[i].(*ast.FuncLit); ok {
						prog.litBound[obj] = lit
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value unpacking: record declarations only.
				if n.Tok == token.DEFINE {
					for _, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							if obj := pkg.Info.Defs[id]; obj != nil {
								prog.declOf[obj] = n
							}
						}
					}
				}
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if n.Tok == token.DEFINE {
					obj = pkg.Info.Defs[id]
					if obj != nil {
						prog.declOf[obj] = n.Rhs[i]
					}
				} else {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
					// Last binding wins; recursion patterns
					// (var walk func; walk = func(){...walk()...})
					// bind before the body is walked because this
					// index pass runs first. The assign statement
					// becomes the annotation anchor, so //lint markers
					// sit on the binding line, not the var declaration.
					prog.litBound[obj] = lit
					prog.declOf[obj] = n
				}
			}
		}
		return true
	})
}

// finish applies annotations, propagates facts and computes the hot
// closure.
func (prog *Program) finish() {
	// Bottom-up Allocates: fixed point over the call graph (cycles are
	// fine — the loop runs until nothing changes).
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			if n.Facts.Allocates {
				continue
			}
			if len(n.Allocs) > 0 {
				n.Facts.Allocates = true
				n.Facts.AllocWhy = n.Allocs[0].What
				changed = true
				continue
			}
			for _, c := range n.Callees {
				if c.Facts.Allocates {
					n.Facts.Allocates = true
					n.Facts.AllocWhy = "calls " + c.Name
					changed = true
					break
				}
			}
			if !n.Facts.Allocates {
				for _, e := range n.ExternCallees {
					if e.Pkg() != nil && e.Pkg().Path() == "fmt" {
						n.Facts.Allocates = true
						n.Facts.AllocWhy = "calls fmt." + e.Name()
						changed = true
						break
					}
				}
			}
		}
	}

	// Hot closure: BFS from the annotated roots. An AllocExempt node is
	// marked hot (it is reachable) but not expanded — it is an
	// acknowledged cold-fill boundary.
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if n.Facts.HotRoot {
			n.Facts.Hot = true
			n.Facts.HotVia = n.Name
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Facts.AllocExempt && !n.Facts.HotRoot {
			continue
		}
		for _, c := range n.Callees {
			if !c.Facts.Hot {
				c.Facts.Hot = true
				c.Facts.HotVia = n.Facts.HotVia
				queue = append(queue, c)
			}
		}
	}
}

// builder walks one declaration, creating literal nodes and resolving
// edges; markers are the per-file lint marker lines.
type builder struct {
	prog    *Program
	pkg     *Package
	markers map[int][]string
}

// markerLines collects, per line, the lint markers of a file's comments.
func markerLines(fset *token.FileSet, f *ast.File) map[int][]string {
	out := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "lint:")
			if i < 0 {
				continue
			}
			rest := text[i+len("lint:"):]
			j := 0
			for j < len(rest) && rest[j] != ' ' && rest[j] != '\t' && rest[j] != ',' {
				j++
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], rest[:j])
		}
	}
	return out
}

// markedAt reports whether marker appears on line or the line above.
func (b *builder) markedAt(pos token.Pos, marker string) bool {
	line := b.pkg.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, m := range b.markers[l] {
			if m == marker {
				return true
			}
		}
	}
	return false
}

// walkFunc walks one function body, attributing calls and alloc sites to
// node and spawning child nodes for nested literals.
func (b *builder) walkFunc(node *FuncNode, body *ast.BlockStmt) {
	node.Facts.HotRoot = node.Facts.HotRoot || b.markedAt(node.anchor, "hotpath")
	node.Facts.AllocExempt = b.markedAt(node.anchor, "alloc")
	litCount := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child, seen := b.prog.byLit[n] // a forward call may have created it
			if !seen {
				child = &FuncNode{
					Pkg: b.pkg, Lit: n,
					Name:   fmt.Sprintf("%s.func%d", node.Name, litCount+1),
					anchor: n.Pos(),
				}
				child.Facts.AcceptsCtx, child.Facts.ReturnsError =
					signatureFacts(b.pkg.Info.TypeOf(n))
				b.prog.byLit[n] = child
				b.prog.Nodes = append(b.prog.Nodes, child)
			}
			litCount++
			if name, bindPos, ok := b.bindingOf(n); ok {
				child.Name = node.Name + "." + name
				child.anchor = bindPos
			}
			b.walkFunc(child, n.Body)
			return false
		case *ast.CallExpr:
			b.addEdges(node, n)
		}
		return true
	}
	ast.Inspect(body, walk)
	node.Allocs = b.allocSites(node, body)
}

// bindingOf finds the variable a literal is bound to, consulting the
// binding index built in pass 1.
func (b *builder) bindingOf(lit *ast.FuncLit) (name string, pos token.Pos, ok bool) {
	for obj, l := range b.prog.litBound { //lint:ordered first match is unique: a literal has one binding
		if l == lit {
			return obj.Name(), bindAnchor(b.prog.declOf[obj], lit), true
		}
	}
	return "", token.NoPos, false
}

// bindAnchor picks the annotation anchor for a bound literal: the
// binding statement when the index recorded one, else the literal.
func bindAnchor(decl ast.Node, lit *ast.FuncLit) token.Pos {
	if decl != nil {
		return decl.Pos()
	}
	return lit.Pos()
}

// addEdges resolves one call expression to graph edges.
func (b *builder) addEdges(node *FuncNode, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := b.pkg.Info.Uses[fun]
		if obj == nil {
			obj = b.pkg.Info.Defs[fun]
		}
		if obj == nil {
			return
		}
		if lit, ok := b.prog.litBound[obj]; ok {
			// Call through a local closure binding. The literal node
			// exists once its own walkFunc ran; link lazily by literal.
			b.linkLit(node, lit)
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			b.link(node, fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := b.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			b.link(node, fn)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: direct edge.
		b.linkLit(node, fun)
	}
}

// link adds an edge to a resolved function object, dedup preserving
// first-call order. A call to an instantiated generic function or method
// links to its generic declaration.
func (b *builder) link(node *FuncNode, fn *types.Func) {
	fn = fn.Origin()
	if target, ok := b.prog.byObj[fn]; ok {
		for _, c := range node.Callees {
			if c == target {
				return
			}
		}
		node.Callees = append(node.Callees, target)
		return
	}
	for _, e := range node.ExternCallees {
		if e == fn {
			return
		}
	}
	node.ExternCallees = append(node.ExternCallees, fn)
}

// linkLit adds an edge to a literal's node, creating the edge even when
// the literal's node is built later in the same walk (the byLit map is
// filled during pass 2 in source order; a forward reference — calling a
// closure declared later — resolves because edges are added after every
// literal in the file has been visited at least by the binding index).
func (b *builder) linkLit(node *FuncNode, lit *ast.FuncLit) {
	if target, ok := b.prog.byLit[lit]; ok {
		for _, c := range node.Callees {
			if c == target {
				return
			}
		}
		node.Callees = append(node.Callees, target)
		return
	}
	// Literal not yet visited: defer by creating its node now; walkFunc
	// will reuse it when it arrives.
	child := &FuncNode{Pkg: b.pkg, Lit: lit, Name: node.Name + ".func", anchor: lit.Pos()}
	child.Facts.AcceptsCtx, child.Facts.ReturnsError = signatureFacts(b.pkg.Info.TypeOf(lit))
	b.prog.byLit[lit] = child
	b.prog.Nodes = append(b.prog.Nodes, child)
	node.Callees = append(node.Callees, child)
}

// displayName renders "pkg.Func" / "pkg.(*T).Method".
func displayName(pkg *Package, obj *types.Func) string {
	short := pkg.Name
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		name := types.TypeString(t, func(p *types.Package) string { return "" })
		return fmt.Sprintf("%s.(%s%s).%s", short, ptr, name, obj.Name())
	}
	return short + "." + obj.Name()
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsErrorType reports whether t is the predeclared error type.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj() == types.Universe.Lookup("error")
}

// signatureFacts derives the signature-level facts of a function type.
func signatureFacts(t types.Type) (acceptsCtx, returnsError bool) {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsContextType(sig.Params().At(i).Type()) {
			acceptsCtx = true
			break
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if IsErrorType(sig.Results().At(i).Type()) {
			returnsError = true
			break
		}
	}
	return acceptsCtx, returnsError
}

// AcceptsContext reports whether fn's signature takes a context.Context
// (works for any resolved function, including stdlib imports).
func AcceptsContext(fn *types.Func) bool {
	ctx, _ := signatureFacts(fn.Type())
	return ctx
}
