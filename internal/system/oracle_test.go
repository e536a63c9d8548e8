package system

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/interp"
	"lppart/internal/iss"
)

// faultProgram generates a program that may index out of range (in a
// global, a local and a recursive frame's array), divide or take a
// remainder by zero, and recurse past depth 1024, each from a seeded
// choice of constants. leaf is call-free, so its scalars are
// register-pinned and its self-copies run IR steps without instructions.
func faultProgram(rng *rand.Rand) string {
	pick := func(p float64, s string, args ...any) string {
		if rng.Float64() >= p {
			return ""
		}
		return fmt.Sprintf(s, args...)
	}
	ng, nb, nf, nl := 2+rng.Intn(7), 2+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(5)
	loop := 1 + rng.Intn(12)
	var b strings.Builder
	fmt.Fprintf(&b, "var g[%d]; var s; var z;\n", ng)

	b.WriteString("func leaf(x, y) { var b[")
	fmt.Fprintf(&b, "%d]; var t; t = x; t = t; t = t; ", nb)
	b.WriteString(pick(0.5, "b[(x + %d) %% %d] = y; ", rng.Intn(3), 1+rng.Intn(nb+2)))
	b.WriteString(pick(0.3, "t = t + b[%d]; ", rng.Intn(nb+1)))
	b.WriteString(pick(0.4, "t = t + y / (x - %d); ", rng.Intn(2*loop+1)))
	b.WriteString(pick(0.3, "t = t + y %% (%d - x); ", rng.Intn(2*loop+1)))
	b.WriteString("return t; }\n")

	fmt.Fprintf(&b, "func rec(n, x) { var fr[%d]; var u; if n <= 0 { ", nf)
	b.WriteString(pick(0.5, "u = fr[(x + %d) %% %d]; ", rng.Intn(3), 1+rng.Intn(nf+2)))
	b.WriteString(pick(0.4, "u = u + x %% (n + %d); ", rng.Intn(3)))
	fmt.Fprintf(&b, "return u; } fr[n %% %d] = x; u = rec(n - 1, x + 1); return u + fr[0]; }\n", nf)

	stmts := []string{
		pick(0.4, "g[i + %d] = g[i %% %d] + a; ", rng.Intn(4), ng),
		pick(0.4, "l[(i * %d) %% %d] = i; ", 1+rng.Intn(3), 1+rng.Intn(nl+2)),
		pick(0.3, "a = a + 100 / (i - %d); ", rng.Intn(2*loop+1)),
		pick(0.3, "a = a + 7 %% (%d - i); ", rng.Intn(2*loop+1)),
		pick(0.6, "a = leaf(i, a); "),
		pick(0.4, "a = a + rec(i * %d, i); ", []int{0, 1, 3, 100, 300}[rng.Intn(5)]),
		pick(0.3, "if i == %d { a = a / z; } ", rng.Intn(2*loop+1)),
		pick(0.3, "a = a + g[%d]; ", rng.Intn(ng+1)),
		"s = s + i; ",
	}
	rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	fmt.Fprintf(&b, "func main() { var i; var a; var l[%d];\n\tfor i = 0; i < %d; i = i + 1 { %s}\n\t", nl, loop, strings.Join(stmts, ""))
	b.WriteString(pick(0.3, "a = a + rec(%d, 1); ", []int{5, 1022, 1023, 1500}[rng.Intn(4)]))
	b.WriteString("s = s + a; return s; }\n")
	return b.String()
}

// oracleText is the error Evaluate must return for ir at limit: the
// interpreter's positioned fault when it traps, else what the compiled
// program's ISS run reports ("" when it halts).
func oracleText(t *testing.T, ir *cdfg.Program, limit int64) (text string, ierr error) {
	t.Helper()
	if _, ierr = interp.Run(ir, interp.Options{MaxSteps: limit}); ierr != nil {
		return "system: profiling: " + ierr.Error(), ierr
	}
	cfg := Config{MaxInstrs: limit}
	cfg.defaults()
	mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: cfg.MemWords, StackWords: cfg.StackWords})
	if err != nil {
		t.Fatal(err)
	}
	res, err := iss.Run(mp, iss.Options{MaxInstrs: limit})
	if err != nil {
		return "system: initial design: " + err.Error(), nil
	}
	res.Release()
	return "", nil
}

// splitRuntime splits an interpreter error, "runtime: <pos>: <msg>",
// into its position and message.
func splitRuntime(err error) (pos, msg string) {
	pos, msg, _ = strings.Cut(strings.TrimPrefix(err.Error(), "runtime: "), ": ")
	return pos, msg
}

// isStepTrip reports whether an interpreter error is the step limit.
func isStepTrip(err error) bool { return err != nil && strings.Contains(err.Error(), "step limit") }

// TestFaultOracle is the measurement's differential fault oracle: on
// seeded generated programs, each run at step limits around its first
// fault (or its last step) and at random ones, Evaluate must fail with
// the interpreter's positioned error whenever the interpreter traps, and
// with the ISS's text otherwise. The limits put step trips inside
// callees, at Call ops and one op before a fault, and let the ISS
// instruction limit (the same number) trip first.
func TestFaultOracle(t *testing.T) {
	const programs = 500
	const unbounded = 10_000_000
	rng := rand.New(rand.NewSource(28))
	seen := map[string]int{}
	for p := 0; p < programs; p++ {
		src := faultProgram(rng)
		ir, err := cdfg.Build(behav.MustParse("oracle", src))
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, src)
		}
		// ops locates the IR ops at a source position.
		ops := map[string][]*cdfg.Op{}
		opBlock := map[*cdfg.Op]*cdfg.Block{}
		opFunc := map[*cdfg.Op]string{}
		for _, f := range ir.Funcs {
			for _, blk := range f.Blocks {
				for i := range blk.Ops {
					op := &blk.Ops[i]
					ops[op.Pos.String()] = append(ops[op.Pos.String()], op)
					opBlock[op], opFunc[op] = blk, f.Name
				}
			}
		}

		// last is the first faulting step, or the program's step count.
		var last int64
		_, faultErr := interp.Run(ir, interp.Options{MaxSteps: unbounded})
		if faultErr == nil {
			res, _ := interp.Run(ir, interp.Options{MaxSteps: unbounded})
			last = res.Steps
		} else {
			if isStepTrip(faultErr) {
				t.Fatalf("program %d runs past %d steps\n%s", p, unbounded, src)
			}
			lo, hi := int64(1), int64(unbounded)
			for lo < hi {
				mid := lo + (hi-lo)/2
				if _, err := interp.Run(ir, interp.Options{MaxSteps: mid}); isStepTrip(err) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			last = lo
		}
		limits := []int64{last - 2, last - 1, last, 1 + rng.Int63n(last), 1 + rng.Int63n(last)}
		for li, limit := range limits {
			if limit < 1 {
				continue
			}
			want, ierr := oracleText(t, ir, limit)
			got := ""
			if _, err := Evaluate(behav.MustParse("oracle", src), Config{MaxInstrs: limit}); err != nil {
				got = err.Error()
			}
			if got != want {
				t.Fatalf("program %d at limit %d:\n got %q\nwant %q\n%s", p, limit, got, want, src)
			}

			// Tally what the case covered.
			if strings.Contains(want, "instruction limit") {
				seen["instruction limit first"]++
			}
			if ierr == nil {
				continue
			}
			pos, msg := splitRuntime(ierr)
			at := ops[pos]
			switch {
			case strings.HasSuffix(msg, " of g"):
				seen["global index"]++
			case strings.HasSuffix(msg, " of b"), strings.HasSuffix(msg, " of l"):
				seen["local index"]++
			case strings.HasSuffix(msg, " of fr"):
				seen["frame index"]++
			case strings.HasPrefix(msg, "call depth"):
				seen["depth"]++
			case msg == "division by zero":
				for _, op := range at {
					switch op.Code {
					case cdfg.Div:
						seen["div by zero"]++
					case cdfg.Rem:
						seen["rem by zero"]++
					}
				}
			case isStepTrip(ierr):
				for _, op := range at {
					if opFunc[op] != "main" {
						seen["step in callee"]++
						break
					}
				}
				for _, op := range at {
					if op.Code == cdfg.Call {
						seen["step at call"]++
						break
					}
				}
				if faultErr != nil && li == 0 {
					fpos, _ := splitRuntime(faultErr)
					same := false
					for _, op := range at {
						for _, fop := range ops[fpos] {
							same = same || opBlock[op] == opBlock[fop]
						}
					}
					if same {
						seen["step one op before a fault, same block"]++
					}
				}
			}
		}
	}
	t.Logf("coverage: %v", seen)
	for _, k := range []string{"global index", "local index", "frame index", "depth", "div by zero",
		"rem by zero", "step in callee", "step at call", "step one op before a fault, same block",
		"instruction limit first"} {
		if seen[k] < 5 {
			t.Errorf("only %d cases of %s", seen[k], k)
		}
	}
}
