package codegen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
)

// corpus returns the six Table 1 applications, the control-dominated one
// and the behavioral sources the examples declare (a string constant
// named source).
func corpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, a := range append(apps.All(), apps.ControlDominated()) {
		srcs["app "+a.Name] = a.Source
	}
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name != "source" || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
					src, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					srcs["example "+filepath.Base(filepath.Dir(path))] = src
				}
			}
			return false
		})
	}
	if len(srcs) < 8 {
		t.Fatalf("only %d programs collected", len(srcs))
	}
	return srcs
}

// TestCompileCodeArrayZeroAlloc pins the one code array per compile:
// Compile reserves the code array up front (layoutTables) and never grows
// it by append, so its capacity stays the reserved one, and the
// reservation overshoots the emitted code by at most a factor of two.
func TestCompileCodeArrayZeroAlloc(t *testing.T) {
	for name, src := range corpus(t) {
		prog, err := behav.Parse("p", src)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := cdfg.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		mp, lay, err := Compile(ir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		reserved := &compiler{prog: ir, lay: lay}
		reserved.layoutTables()
		n, c := len(mp.Code), cap(mp.Code)
		t.Logf("%s: %d instructions, capacity %d", name, n, c)
		if c != cap(reserved.code) {
			t.Errorf("%s: code capacity %d, want the reserved %d: the array was regrown", name, c, cap(reserved.code))
		}
		if n > c || c > 2*n {
			t.Errorf("%s: %d instructions in capacity %d, want len <= cap <= 2*len", name, n, c)
		}
	}
}
