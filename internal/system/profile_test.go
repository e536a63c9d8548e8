package system

import (
	"context"
	"reflect"
	"testing"

	"lppart/internal/apps/appstest"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/interp"
)

// profileShapes are small programs covering the control shapes a block
// profile must count right.
var profileShapes = map[string]string{
	"uncalled function": `
var g;
func never(x) { var i; for i = 0; i < x; i = i + 1 { g = g + i; } return g; }
func main() { g = 3; }
`,
	"recursion": `
func fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
func main() { return fib(12); }
`,
	"nested loops": `
var m[64];
func main() {
	var i; var j; var k;
	for i = 0; i < 8; i = i + 1 {
		for j = 0; j < i; j = j + 1 {
			k = 0;
			while k < j { m[i * 8 + j] = m[i * 8 + j] + k; k = k + 1; }
		}
	}
}
`,
	"early return": `
var hits;
func find(v) {
	var i;
	for i = 0; i < 100; i = i + 1 {
		if i * i >= v { return i; }
		hits = hits + 1;
	}
	return 0 - 1;
	hits = 0;
}
func main() { var s; var n; for n = 0; n < 50; n = n + 7 { s = s + find(n); } return s; }
`,
	"empty loop body": `
func main() { var i; for i = 0; i < 37; i = i + 1 { } while i > 40 { } return i; }
`,
	"call in loop condition": `
var budget;
func more() { budget = budget - 1; return budget > 0; }
func main() { var n; budget = 25; while more() { n = n + 1; } return n; }
`,
}

// profileSources returns every program the block profile is checked on:
// the six Table 1 applications, the control-dominated one, the examples'
// own sources and the hand-written shapes.
func profileSources(t *testing.T) map[string]string {
	t.Helper()
	srcs, err := appstest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range profileShapes {
		srcs[name] = src
	}
	return srcs
}

// TestBlockProfileMatchesInterpreter is the block profile's oracle: the
// BlockFreq the measurement derives from the ISS's block entries must
// equal the interpreter's, function for function and block for block.
func TestBlockProfileMatchesInterpreter(t *testing.T) {
	srcs := profileSources(t)
	if len(srcs) < 7+1+len(profileShapes) {
		t.Fatalf("only %d programs collected", len(srcs))
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog, err := behav.Parse("p", src)
			if err != nil {
				t.Fatal(err)
			}
			ir, err := cdfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := interp.Run(ir, interp.Options{CollectProfile: true})
			if err != nil {
				t.Fatal(err)
			}
			ev, _, err := MeasureInitialCtx(context.Background(), ir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got := ev.Profile.BlockFreq
			if len(got) != len(ir.Funcs) {
				t.Errorf("BlockFreq covers %d functions, want %d", len(got), len(ir.Funcs))
			}
			for _, f := range ir.Funcs {
				if len(got[f.Name]) != len(f.Blocks) {
					t.Errorf("%s: %d block counts, want %d", f.Name, len(got[f.Name]), len(f.Blocks))
				}
			}
			if !reflect.DeepEqual(got, ref.Prof.BlockFreq) {
				t.Errorf("ISS BlockFreq\n %v\ninterpreter\n %v", got, ref.Prof.BlockFreq)
			}
		})
	}
}
