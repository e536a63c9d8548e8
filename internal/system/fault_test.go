package system

import (
	"context"
	"errors"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
)

// dotProduct runs 581 IR steps and 778 instructions.
const dotProduct = `
var a[64]; var s;
func main() { var i; for i = 0; i < 64; i = i + 1 { s = s + a[i] * a[63 - i]; } }
`

// selfCopies runs 1006 IR steps and 413 instructions: its copies of a
// register-promoted local compile to nothing, so only the IR step limit
// can stop it early.
const selfCopies = `
var s;
func main() { var i; var t; for i = 0; i < 100; i = i + 1 { t = t; t = t; t = t; t = t; t = t; t = t; } s = t; }
`

// faultCases are programs the measurement must reject, with the exact
// error text Evaluate returns for each. The texts are part of the API:
// lppartd returns them verbatim in its 422 bodies.
var faultCases = []struct {
	name string
	src  string
	cfg  Config
	want string
}{
	{name: "index past end", src: `
var a[3];
func main() { var i; i = 5; a[i] = 1; }
`, want: "system: profiling: runtime: 3:29: index 5 out of range [0,3) of a"},
	{name: "negative index", src: `
var x; var a[3];
func main() { var i; i = 0 - 1; return a[i]; }
`, want: "system: profiling: runtime: 3:40: index -1 out of range [0,3) of a"},
	{name: "constant index", src: `
var a[3];
func main() { a[5] = 1; }
`, want: "system: profiling: runtime: 3:15: index 5 out of range [0,3) of a"},
	{name: "local array index", src: `
func f(n) { var b[4]; b[n] = 1; return b[0]; }
func main() { return f(4); }
`, want: "system: profiling: runtime: 2:23: index 4 out of range [0,4) of b"},
	{name: "recursive frame index", src: `
func f(n) { var b[2]; if n <= 0 { return b[n + 2]; } return f(n - 1); }
func main() { return f(3); }
`, want: "system: profiling: runtime: 2:42: index 2 out of range [0,2) of b"},
	{name: "recursion depth", src: `
func f(n) { if n <= 0 { return 0; } return 1 + f(n - 1); }
func main() { return f(2000); }
`, want: "system: profiling: runtime: 0:0: call depth exceeds 1024"},
	{name: "division by zero", src: `
var z;
func main() { var x; x = 7; return x / z; }
`, want: "system: profiling: runtime: 3:38: division by zero"},
	{name: "remainder by zero", src: `
var z;
func main() { var x; x = 7; return x % z; }
`, want: "system: profiling: runtime: 3:38: division by zero"},
	{name: "step limit", src: `
var s;
func main() { var i; for i = 0; i < 1000; i = i + 1 { s = s + i; } }
`, cfg: Config{MaxInstrs: 500}, want: "system: profiling: runtime: 3:49: step limit 500 exceeded"},
	// One step over the limit faults; a limit of exactly 581 steps
	// passes the step check but not the ISS instruction limit.
	{name: "step limit boundary", src: dotProduct, cfg: Config{MaxInstrs: 580},
		want: "system: profiling: runtime: 3:1: step limit 580 exceeded"},
	{name: "instruction limit", src: dotProduct, cfg: Config{MaxInstrs: 581},
		want: "system: initial design: iss: pc=8: instruction limit 581 exceeded"},
	{name: "step limit, few instructions", src: selfCopies, cfg: Config{MaxInstrs: 1005},
		want: "system: profiling: runtime: 3:1: step limit 1005 exceeded"},
}

// TestFaultTexts pins the error text of every fault the measurement
// traps: out-of-range indices (runtime, negative, constant, in a static
// and in a stack frame), runaway recursion, division and remainder by
// zero, the IR step limit, and a program within the step limit whose
// compiled form exceeds the ISS instruction limit.
func TestFaultTexts(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := behav.Parse("fault", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Evaluate(src, tc.cfg)
			if err == nil {
				t.Fatal("Evaluate accepted a faulting program")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error text\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestStepLimitExact: a program of exactly MaxInstrs IR steps, and fewer
// instructions, passes.
func TestStepLimitExact(t *testing.T) {
	if _, err := Evaluate(behav.MustParse("steps", selfCopies), Config{MaxInstrs: 1006}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureAndSweepFaults: the online geometry sweep rejects every
// program Evaluate rejects, with Evaluate's error text, so /v1/sweep and
// cacheprof refuse what /v1/partition refuses in the same words.
func TestMeasureAndSweepFaults(t *testing.T) {
	pairs := [][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			ir, err := cdfg.Build(behav.MustParse("fault", tc.src))
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, _, err = MeasureAndSweepCtx(context.Background(), ir, tc.cfg, pairs)
			if err == nil || err.Error() != tc.want {
				t.Errorf("MeasureAndSweepCtx error %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRecordTraceFaults: recording a trace rejects every program
// Evaluate rejects, with Evaluate's error text.
func TestRecordTraceFaults(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			ir, err := cdfg.Build(behav.MustParse("fault", tc.src))
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, err = MeasureAndRecordCtx(context.Background(), ir, tc.cfg)
			if err == nil || err.Error() != tc.want {
				t.Errorf("MeasureAndRecordCtx error %v, want %q", err, tc.want)
			}
		})
	}
}

// TestInterpErrorAfterDeadline: once the request's context is done, a
// failed run answers with the context's error instead of spending a
// second simulation on the interpreter's error text.
func TestInterpErrorAfterDeadline(t *testing.T) {
	ir, err := cdfg.Build(behav.MustParse("fault", faultCases[0].src))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := interpError(ctx, ir, &Config{}, errors.New("iss fault")); !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want %v", err, context.Canceled)
	}
	if err := interpError(context.Background(), ir, &Config{}, errors.New("iss fault")); err == nil || err.Error() != faultCases[0].want {
		t.Errorf("error %v, want %q", err, faultCases[0].want)
	}
}
