package cdfg_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"lppart/internal/apps"
	"lppart/internal/apps/appstest"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
)

// parsed returns the codegen corpus (the six applications, the
// control-dominated one and the examples' sources) parsed, by name.
func parsed(t testing.TB) map[string]*behav.Program {
	t.Helper()
	srcs, err := appstest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	progs := make(map[string]*behav.Program, len(srcs))
	for name, src := range srcs {
		p, err := behav.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	return progs
}

// TestBlockOpsExactArena: every block's ops have cap == len, and a
// function's non-empty blocks tile one array of the function's op count,
// in the six applications, the control-dominated one and the examples.
func TestBlockOpsExactArena(t *testing.T) {
	const opSize = unsafe.Sizeof(cdfg.Op{})
	for name, src := range parsed(t) {
		ir, err := cdfg.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ir.Funcs {
			type run struct{ at, n uintptr }
			var runs []run
			for _, b := range f.Blocks {
				if len(b.Ops) != cap(b.Ops) {
					t.Errorf("%s: %s b%d: len %d, cap %d, want cap == len", name, f.Name, b.ID, len(b.Ops), cap(b.Ops))
				}
				if len(b.Ops) > 0 {
					runs = append(runs, run{uintptr(unsafe.Pointer(&b.Ops[0])), uintptr(len(b.Ops))})
				}
			}
			sort.Slice(runs, func(i, j int) bool { return runs[i].at < runs[j].at })
			next, total := runs[0].at, 0
			for _, r := range runs {
				if r.at != next {
					t.Errorf("%s: %s: blocks do not share one contiguous op array (gap of %d bytes)", name, f.Name, int(r.at)-int(next))
					break
				}
				next += r.n * opSize
				total += int(r.n)
			}
			if total != f.NumOps() {
				t.Errorf("%s: %s: arena holds %d ops, function has %d", name, f.Name, total, f.NumOps())
			}
		}
	}
}

var sink []cdfg.Op

// TestBuildOpArenaZeroAlloc: a warm Build emits into a recycled buffer
// and allocates each function's ops once, at exact size, so in blocks as
// large as the program's largest function's ops it allocates exactly
// what one array of that function's op count costs per such function.
func TestBuildOpArenaZeroAlloc(t *testing.T) {
	const opSize = int(unsafe.Sizeof(cdfg.Op{}))
	for name, src := range parsed(t) {
		ir, err := cdfg.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, f := range ir.Funcs {
			most = max(most, f.NumOps())
		}
		size := most * opSize
		want := appstest.BigAllocBytes(size, func() {
			for _, f := range ir.Funcs {
				if f.NumOps() == most {
					sink = make([]cdfg.Op, most)
				}
			}
		})
		got := appstest.BigAllocBytes(size, func() { ir, err = cdfg.Build(src) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d B in blocks of at least %d B (%d ops)", name, got, size, most)
		if got != want {
			t.Errorf("%s: a warm Build allocates %d B in blocks of at least the largest function's %d B of ops, want %d B", name, got, size, want)
		}
	}
	sink = nil
}

// TestWarmBuildMatchesCold: a Build on a recycled scratch, left by
// larger and smaller programs, equals one on a fresh scratch.
func TestWarmBuildMatchesCold(t *testing.T) {
	progs := parsed(t)
	for _, src := range progs {
		if _, err := cdfg.Build(src); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range progs {
		warm, err := cdfg.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cdfg.BuildCold(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: warm Build differs from a cold one", name)
		}
	}
}

// TestConcurrentBuildsMatchSerial: the six applications built on 8
// goroutines at once equal their serial builds (run it under -race).
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	all := apps.All()
	serial := make([]*cdfg.Program, len(all))
	for i := range all {
		ir, err := all[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = ir
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range all {
				i := (w + k) % len(all)
				ir, err := all[i].Build()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ir, serial[i]) {
					t.Errorf("worker %d: %s differs from its serial build", w, all[i].Name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFailedBuildLeavesPoolUsable: a Build that fails part-way through a
// function hands its scratch back, and the next Builds still equal cold
// ones.
func TestFailedBuildLeavesPoolUsable(t *testing.T) {
	src, err := behav.Parse("bad", "func main() { var a; a = 1; if a > 0 { a = a + 2; a = 3; } }")
	if err != nil {
		t.Fatal(err)
	}
	// The checker accepts the source; the builder then meets an
	// assignment to a name it has never declared, inside the if.
	inner := src.Funcs[0].Body.Stmts[2].(*behav.IfStmt).Then.Stmts[1].(*behav.AssignStmt)
	inner.Target = "undeclared"
	for i := 0; i < 2; i++ {
		if _, err := cdfg.Build(src); err == nil || !strings.Contains(err.Error(), `undeclared variable "undeclared"`) {
			t.Fatalf("Build = %v, want the undeclared-variable error", err)
		}
	}
	for name, p := range parsed(t) {
		warm, err := cdfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cdfg.BuildCold(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: Build after a failed one differs from a cold one", name)
		}
	}
}

// BenchmarkBuild builds the six Table 1 applications' IR, parsed once,
// per op.
func BenchmarkBuild(b *testing.B) {
	var srcs []*behav.Program
	for _, a := range apps.All() {
		p, err := a.Parse()
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range srcs {
			ir, err := cdfg.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			sink = ir.Funcs[0].Blocks[0].Ops
		}
	}
	sink = nil
}
