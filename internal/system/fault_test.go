package system

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/isa"
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

// cancelOnFetch cancels a context at the first instruction fetch it
// observes: the measurement's run then fails after its ctx is done.
type cancelOnFetch struct{ cancel context.CancelFunc }

func (c cancelOnFetch) FetchInstr(uint32) int { c.cancel(); return 0 }
func (cancelOnFetch) ReadData(int32) int      { return 0 }
func (cancelOnFetch) WriteData(int32) int     { return 0 }

// TestMeasureErrorAfterDeadline: once the request's context is done, a
// failed measurement answers with the context's error instead of the
// fault's text; with a live context it names the fault.
func TestMeasureErrorAfterDeadline(t *testing.T) {
	ir, err := cdfg.Build(behav.MustParse("fault", faultCases[0].src))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, err := measureCtx(ctx, ir, Config{}, cancelOnFetch{cancel}); !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want %v", err, context.Canceled)
	}
	if _, _, err := measureCtx(context.Background(), ir, Config{}, nil); err == nil || err.Error() != faultCases[0].want {
		t.Errorf("error %v, want %q", err, faultCases[0].want)
	}
}

// runaway loops forever: only the IR step limit stops it.
const runaway = `var s; func main() { var i; for i = 0; i >= 0; i = i + 0 { s = s + 1; } }`

// BenchmarkRunawayMeasure times the rejection of a runaway program at
// lppartd's default budget of 50M, through the full evaluation entry.
func BenchmarkRunawayMeasure(b *testing.B) {
	ir, err := cdfg.Build(behav.MustParse("runaway", runaway))
	if err != nil {
		b.Fatal(err)
	}
	const want = "system: profiling: runtime: 1:54: step limit 50000000 exceeded"
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateIRCtx(context.Background(), ir, Config{MaxInstrs: 50_000_000}); err == nil || err.Error() != want {
			b.Fatalf("error %v, want %q", err, want)
		}
	}
}

// machineFaultCases are programs the interpreter would trap (on a
// division by zero, an index and the call depth) that fail first in the
// compiler or in the ISS, on a fault the interpreter has no equivalent
// for: the measurement reports that failure's own text.
var machineFaultCases = []struct {
	name, src, want string
}{
	{name: "seven arguments", src: `
func f(a, b, c, d, e, g, h) { return a / h; }
func main() { return f(1, 2, 3, 4, 5, 6, 0); }
`, want: "system: compile: codegen: call to f has 7 args, max 6"},
	{name: "data beyond memory", src: `
var big[2000000];
func main() { return big[2000000]; }
`, want: "system: compile: codegen: data (2000010 words) plus stack (16384) exceed memory (1048576)"},
	{name: "stack beyond memory", src: `
func f(n) { var b[1100]; if n <= 0 { return 0; } return f(n - 1); }
func main() { return f(2000); }
`, want: "system: initial design: iss: pc=2: stack pointer -69 below the static data's end 10"},
}

// TestMachineFaultTexts pins the texts of machineFaultCases.
func TestMachineFaultTexts(t *testing.T) {
	for _, tc := range machineFaultCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Evaluate(behav.MustParse("fault", tc.src), Config{})
			if err == nil || err.Error() != tc.want {
				t.Errorf("error %v, want %q", err, tc.want)
			}
		})
	}
}

// stackIntoData recurses d calls deep into f and, in the deepest frame,
// fills the local array b with v. main's return jumps through its static
// return-address slot and it then divides by the global one.
const stackIntoData = `
var one;
func f(n, v) { var b[64]; var i; if n <= 0 { for i = 0; i < 64; i = i + 1 { b[i] = v; } return 0; } return f(n - 1, v); }
func main() { one = 1; return f(%d, %d) + 100 / one; }
`

// TestStackIntoData: a recursion sized so that its deepest frame lies on
// the static data, where b covers main's return-address slot and the
// global one. Filling b with the pc of main's return would make that
// return loop on itself, and filling it with 0 would divide by zero
// where the interpreter does not; the interpreter has no memory map and
// halts. The run must stop at the frame's allocation instead: with the
// stack's fault, or with the instruction limit's if that tripped first.
func TestStackIntoData(t *testing.T) {
	for _, d := range []int{3, 7, 20} {
		// Compile once with placeholder constants to read f's frame size
		// and the pc of main's return; the constants do not move code.
		ir, err := cdfg.Build(behav.MustParse("stack", fmt.Sprintf(stackIntoData, d, 12345)))
		if err != nil {
			t.Fatal(err)
		}
		mp, _, err := codegen.Compile(ir, codegen.Options{StackWords: 16})
		if err != nil {
			t.Fatal(err)
		}
		frame := int(mp.Code[mp.Funcs["f"]].Imm)
		jr := mp.Funcs["main"]
		for mp.Code[jr].Op != isa.JR {
			jr++
		}
		// The deepest of the d+1 frames starts at word 0.
		mem := (d + 1) * frame
		for _, v := range []int{jr, 0} {
			for _, limit := range []int64{0, int64(8*d + 10)} {
				src := fmt.Sprintf(stackIntoData, d, v)
				_, err := Evaluate(behav.MustParse("stack", src), Config{MemWords: mem, StackWords: 16, MaxInstrs: limit})
				want := fmt.Sprintf("system: initial design: iss: pc=%d: stack pointer 0 below the static data's end %d", mp.Funcs["f"], mp.DataWords)
				if limit > 0 {
					want = fmt.Sprintf(": instruction limit %d exceeded", limit)
				}
				if err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("depth %d, v=%d, limit %d: error %v, want %q", d, v, limit, err, want)
				}
			}
		}
	}
}

// countingCancel cancels its ctx at the first instruction fetch and
// counts every fetch.
type countingCancel struct {
	cancel  context.CancelFunc
	fetches int64
}

func (c *countingCancel) FetchInstr(uint32) int { c.cancel(); c.fetches++; return 0 }
func (*countingCancel) ReadData(int32) int      { return 0 }
func (*countingCancel) WriteData(int32) int     { return 0 }

// TestCancelStopsSimulation: cancellation reaches the ISS. A cancelled
// measurement of a runaway program stops within one ctx checkpoint of
// the cancel instead of running to the step limit, and a cancelled
// co-simulation stops too; both return ctx's error.
func TestCancelStopsSimulation(t *testing.T) {
	ir, err := cdfg.Build(behav.MustParse("runaway", runaway))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &countingCancel{cancel: cancel}
	if _, _, err := measureCtx(ctx, ir, Config{MaxInstrs: 50_000_000}, obs); err != context.Canceled {
		t.Errorf("measurement: error %v, want %v", err, context.Canceled)
	}
	if obs.fetches > 1<<16 {
		t.Errorf("measurement ran %d instructions after the cancel, want at most 65536", obs.fetches)
	}

	mpg := buildApp(t, "MPG")
	cfg := Config{}
	cfg.defaults()
	ev, err := EvaluateIRCtx(context.Background(), mpg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Partitioned.ISS.Instrs <= 1<<16 {
		t.Fatalf("MPG's co-simulation runs %d instructions, too few to reach a ctx checkpoint", ev.Partitioned.ISS.Instrs)
	}
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if _, _, err := runPartitioned(done, mpg, ev.Decision, &cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("co-simulation: error %v, want %v", err, context.Canceled)
	}
}
