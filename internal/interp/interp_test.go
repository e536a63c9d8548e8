package interp

import (
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := Run(ir, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runErr(t *testing.T, src string, opts Options) error {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, err = Run(ir, opts)
	if err == nil {
		t.Fatal("expected runtime error")
	}
	return err
}

func TestRunReturn(t *testing.T) {
	res := run(t, "func main() { return 41 + 1; }", Options{})
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42", res.Ret)
	}
}

func TestRunArithmetic(t *testing.T) {
	res := run(t, `
func main() {
	var a; var b;
	a = 7; b = 3;
	return (a*b - a/b) % 10 + (a << 2) - (a & b) + (a | b) - (a ^ b) + ~b + -a;
}
`, Options{})
	a, b := int32(7), int32(3)
	want := (a*b-a/b)%10 + (a << 2) - (a & b) + (a | b) - (a ^ b) + ^b + -a
	if res.Ret != want {
		t.Errorf("ret = %d, want %d", res.Ret, want)
	}
}

func TestRunLoopSum(t *testing.T) {
	res := run(t, `
func main() {
	var i; var s;
	s = 0;
	for i = 1; i <= 100; i = i + 1 { s = s + i; }
	return s;
}
`, Options{})
	if res.Ret != 5050 {
		t.Errorf("ret = %d, want 5050", res.Ret)
	}
}

func TestRunGlobalsAndArrays(t *testing.T) {
	res := run(t, `
var fib[10];
var last;
func main() {
	var i;
	fib[0] = 0; fib[1] = 1;
	for i = 2; i < 10; i = i + 1 {
		fib[i] = fib[i-1] + fib[i-2];
	}
	last = fib[9];
}
`, Options{})
	fib := res.Globals["fib"]
	want := []int32{0, 1, 1, 2, 3, 5, 8, 13, 21, 34}
	for i, w := range want {
		if fib[i] != w {
			t.Errorf("fib[%d] = %d, want %d", i, fib[i], w)
		}
	}
	if res.Globals["last"][0] != 34 {
		t.Errorf("last = %d, want 34", res.Globals["last"][0])
	}
}

func TestRunCallsAndRecursion(t *testing.T) {
	res := run(t, `
func fact(n) {
	if n <= 1 { return 1; }
	return n * fact(n - 1);
}
func main() { return fact(10); }
`, Options{})
	if res.Ret != 3628800 {
		t.Errorf("fact(10) = %d, want 3628800", res.Ret)
	}
}

func TestRunLocalArrays(t *testing.T) {
	res := run(t, `
func main() {
	var buf[5];
	var i; var s;
	for i = 0; i < 5; i = i + 1 { buf[i] = i * i; }
	s = 0;
	for i = 0; i < 5; i = i + 1 { s = s + buf[i]; }
	return s;
}
`, Options{})
	if res.Ret != 0+1+4+9+16 {
		t.Errorf("ret = %d, want 30", res.Ret)
	}
}

func TestRunZeroInitialized(t *testing.T) {
	res := run(t, `
var g; var arr[3];
func main() {
	var loc;
	return g + arr[0] + arr[1] + arr[2] + loc;
}
`, Options{})
	if res.Ret != 0 {
		t.Errorf("uninitialized vars must read 0, got %d", res.Ret)
	}
}

func TestRunWhileAndLogic(t *testing.T) {
	res := run(t, `
func main() {
	var n; var count;
	n = 27; count = 0;
	while n != 1 && count < 1000 {
		if n % 2 == 0 { n = n / 2; } else { n = 3*n + 1; }
		count = count + 1;
	}
	return count;
}
`, Options{})
	if res.Ret != 111 { // Collatz steps for 27
		t.Errorf("collatz(27) = %d, want 111", res.Ret)
	}
}

func TestRunDivByZeroTrap(t *testing.T) {
	err := runErr(t, "var z; func main() { return 1 / z; }", Options{})
	if !strings.Contains(err.Error(), "zero") {
		t.Errorf("error = %v, want division by zero", err)
	}
}

func TestRunIndexOutOfRange(t *testing.T) {
	err := runErr(t, "var a[3]; func main() { var i; i = 5; a[i] = 1; }", Options{})
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error = %v", err)
	}
	err = runErr(t, "var a[3]; func main() { var i; i = 0 - 1; return a[i]; }", Options{})
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error = %v", err)
	}
}

func TestRunStepLimit(t *testing.T) {
	err := runErr(t, "func main() { while 1 { } }", Options{MaxSteps: 10000})
	if !strings.Contains(err.Error(), "step limit") {
		t.Errorf("error = %v", err)
	}
}

func TestRunDepthLimit(t *testing.T) {
	err := runErr(t, "func f(n) { return f(n+1); } func main() { return f(0); }",
		Options{MaxDepth: 50})
	if !strings.Contains(err.Error(), "depth") {
		t.Errorf("error = %v", err)
	}
}

func TestProfileBlockFreq(t *testing.T) {
	res := run(t, `
var s;
func main() {
	var i;
	for i = 0; i < 10; i = i + 1 { s = s + i; }
}
`, Options{CollectProfile: true})
	if res.Prof == nil {
		t.Fatal("no profile collected")
	}
	freq := res.Prof.BlockFreq["main"]
	// Header executes 11 times (10 taken + 1 exit), body 10 times.
	has11, has10 := false, false
	for _, f := range freq {
		if f == 11 {
			has11 = true
		}
		if f == 10 {
			has10 = true
		}
	}
	if !has11 || !has10 {
		t.Errorf("block frequencies %v, want header=11 body=10", freq)
	}
}

func TestProfileRegionEntries(t *testing.T) {
	prog := behav.MustParse("t", `
var s;
func main() {
	var i; var j;
	for i = 0; i < 4; i = i + 1 {
		for j = 0; j < 5; j = j + 1 { s = s + 1; }
	}
}
`)
	ir := cdfg.MustBuild(prog)
	res, err := Run(ir, Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	var inner, outer *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			if r.Depth() == 2 {
				inner = r
			} else {
				outer = r
			}
		}
	}
	// Outer header: 5 (4 iterations + exit). Inner header: 4*(5+1) = 24.
	if got := res.Prof.RegionEntries(outer); got != 5 {
		t.Errorf("outer entries = %d, want 5", got)
	}
	if got := res.Prof.RegionEntries(inner); got != 24 {
		t.Errorf("inner entries = %d, want 24", got)
	}
	if res.Globals["s"][0] != 20 {
		t.Errorf("s = %d, want 20", res.Globals["s"][0])
	}
}

func TestStepsCounted(t *testing.T) {
	res := run(t, "func main() { return 1; }", Options{})
	if res.Steps <= 0 || res.Steps > 10 {
		t.Errorf("steps = %d, want small positive", res.Steps)
	}
	res2 := run(t, `
func main() {
	var i; var s;
	for i = 0; i < 1000; i = i + 1 { s = s + i; }
	return s;
}
`, Options{})
	if res2.Steps < 4000 {
		t.Errorf("steps = %d, want >= 4000 for 1000 iterations", res2.Steps)
	}
}

func TestGlobalsSnapshotIsolated(t *testing.T) {
	// The returned snapshot must not alias interpreter state across runs.
	prog := behav.MustParse("t", "var g; func main() { g = g + 1; }")
	ir := cdfg.MustBuild(prog)
	r1, err := Run(ir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Globals["g"][0] != 1 || r2.Globals["g"][0] != 1 {
		t.Errorf("globals leaked across runs: %d, %d", r1.Globals["g"][0], r2.Globals["g"][0])
	}
}
