// Package appstest collects the behavioral programs the tests run over:
// the six Table 1 applications, the control-dominated one and the
// sources the examples declare; and it gauges the large allocations of
// building and compiling them. It reads the examples from the module's
// source tree, so only tests may import it.
package appstest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strconv"

	"lppart/internal/apps"
)

// Corpus returns the six Table 1 applications and the control-dominated
// one, keyed "app NAME", and the examples' sources (see Examples).
func Corpus() (map[string]string, error) {
	srcs, err := Examples()
	if err != nil {
		return nil, err
	}
	for _, a := range append(apps.All(), apps.ControlDominated()) {
		srcs["app "+a.Name] = a.Source
	}
	return srcs, nil
}

// Examples returns the behavioral program of every example that declares
// one (a string constant named source), keyed "example DIR". The other
// examples run built-in applications.
func Examples() (map[string]string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("appstest: no source path")
	}
	mains, err := filepath.Glob(filepath.Join(filepath.Dir(file), "../../../examples/*/main.go"))
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("appstest: no examples beside %s", file)
	}
	srcs := make(map[string]string)
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if name.Name != "source" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok {
						continue
					}
					src, err := strconv.Unquote(lit.Value)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", path, err)
					}
					srcs["example "+filepath.Base(filepath.Dir(path))] = src
				}
			}
		}
	}
	return srcs, nil
}

// BigAllocBytes runs f and returns the bytes it allocated in blocks of
// at least size bytes. ReadMemStats first flushes every P's allocation
// cache, so the per-size-class counts are exact; blocks past the classes
// BySize lists are counted as big whatever their size. Run it with no
// other goroutine allocating.
func BigAllocBytes(size int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	var listed, big uint64
	for i, c := range after.BySize {
		n := (c.Mallocs - before.BySize[i].Mallocs) * uint64(c.Size)
		listed += n
		if int(c.Size) >= size {
			big += n
		}
	}
	return big + after.TotalAlloc - before.TotalAlloc - listed
}
