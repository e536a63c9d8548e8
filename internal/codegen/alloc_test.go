package codegen

import (
	"testing"
	"unsafe"

	"lppart/internal/apps"
	"lppart/internal/apps/appstest"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/isa"
)

// corpus returns the six Table 1 applications, the control-dominated one
// and the behavioral sources the examples declare.
func corpus(t testing.TB) map[string]string {
	t.Helper()
	srcs, err := appstest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 8 {
		t.Fatalf("only %d programs collected", len(srcs))
	}
	return srcs
}

var sink []isa.Instr

// TestCompileCodeArrayZeroAlloc pins the one code array per
// compile: Compile emits into a recycled buffer and returns an exact copy
// of it, so the program's code has cap == len, and a warm Compile
// allocates, in blocks as large as its code, exactly what one such copy
// costs: no reservation past the code and no regrowth.
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
		mp, _, err := Compile(ir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(mp.Code)
		if c := cap(mp.Code); c != n {
			t.Errorf("%s: %d instructions in capacity %d, want cap == len", name, n, c)
		}
		size := n * int(unsafe.Sizeof(isa.Instr{}))
		want := appstest.BigAllocBytes(size, func() { sink = make([]isa.Instr, n) })
		got := appstest.BigAllocBytes(size, func() {
			mp, _, err = Compile(ir, Options{})
			sink = mp.Code
		})
		t.Logf("%s: %d instructions, %d B in blocks of at least %d B (one copy: %d B)", name, n, got, size, want)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: a warm Compile allocates %d B in blocks of at least the code's %d B, want one copy's %d B", name, got, size, want)
		}
	}
	sink = nil
}

// BenchmarkCompile compiles the six Table 1 applications' IR, built
// once, per op.
func BenchmarkCompile(b *testing.B) {
	var irs []*cdfg.Program
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			b.Fatal(err)
		}
		irs = append(irs, ir)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ir := range irs {
			mp, _, err := Compile(ir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			sink = mp.Code
		}
	}
	sink = nil
}
