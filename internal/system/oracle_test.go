package system

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lppart/internal/apps"
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

// nestProgram generates a program of randomly nested loops, whiles and
// if/else chains in several functions, some with returns deep inside: a
// region tree far deeper and more varied than faultProgram's.
func nestProgram(rng *rand.Rand) string {
	var stmts func(depth int) string
	stmts = func(depth int) string {
		var b strings.Builder
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k := rng.Intn(8)
			if depth >= 4 {
				k = 0
			}
			switch k {
			case 0, 1:
				fmt.Fprintf(&b, "t = t + g[%d] * i; ", rng.Intn(8))
			case 2:
				fmt.Fprintf(&b, "for i = 0; i < %d; i = i + 1 { %s} ", 1+rng.Intn(4), stmts(depth+1))
			case 3:
				fmt.Fprintf(&b, "while j < %d { j = j + 1; %s} ", 1+rng.Intn(4), stmts(depth+1))
			case 4:
				fmt.Fprintf(&b, "if t > %d { %s} ", rng.Intn(9), stmts(depth+1))
			case 5:
				fmt.Fprintf(&b, "if t < %d { %s} else { %s} ", rng.Intn(9), stmts(depth+1), stmts(depth+1))
			case 6:
				fmt.Fprintf(&b, "if t == %d { %s} else if j > %d { %s} ", rng.Intn(9), stmts(depth+1), rng.Intn(5), stmts(depth+1))
			case 7:
				if rng.Intn(3) == 0 {
					b.WriteString("return t; ")
				} else {
					b.WriteString("s = s + t; ")
				}
			}
		}
		return b.String()
	}
	var b strings.Builder
	b.WriteString("var g[8]; var s;\n")
	nf := 1 + rng.Intn(3)
	for f := 0; f < nf; f++ {
		fmt.Fprintf(&b, "func f%d(t) { var i; var j; %sreturn t; }\n", f, stmts(0))
	}
	b.WriteString("func main() { var i; var j; var t; ")
	for f := 0; f < nf; f++ {
		fmt.Fprintf(&b, "t = t + f%d(%d); ", f, f)
	}
	fmt.Fprintf(&b, "%ss = t; }\n", stmts(0))
	return b.String()
}

// TestRegionModelOracle checks the cluster model's two tree answers
// against block scans over every region (pair) of the six applications
// and of generated programs: Overlaps must equal "the two regions share a
// block", and Exit must equal the first successor outside the region
// wherever that is the only one (and fail wherever it is not).
func TestRegionModelOracle(t *testing.T) {
	var progs []*cdfg.Program
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, ir)
	}
	rng := rand.New(rand.NewSource(30))
	var srcs []string
	for i := 0; i < 150; i++ {
		srcs = append(srcs, faultProgram(rng), nestProgram(rng))
	}
	for i, src := range srcs {
		ir, err := cdfg.Build(behav.MustParse("regions", src))
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		progs = append(progs, ir)
	}

	shareBlock := func(a, b *cdfg.Region) bool {
		if a.Func != b.Func {
			return false
		}
		for _, x := range a.Blocks {
			if b.Contains(x) {
				return true
			}
		}
		return false
	}
	// scanExit is the successor search Exit replaced.
	scanExit := func(r *cdfg.Region) (exit int, unique bool) {
		exit = -1
		for _, bid := range r.Blocks {
			for _, s := range r.Func.Block(bid).Succs() {
				if r.Contains(s) {
					continue
				}
				if exit != -1 && exit != s {
					return exit, false
				}
				exit = s
			}
		}
		return exit, exit != -1
	}

	var pairs, overlapping, exits, returns, maxDepth int
	for pi, ir := range progs {
		regions := ir.Regions()
		for _, a := range regions {
			maxDepth = max(maxDepth, a.Depth())
			want, unique := scanExit(a)
			got, err := a.Exit()
			switch {
			case unique && (err != nil || got != want):
				t.Fatalf("program %d %s: Exit() = %d, %v; the scan finds b%d", pi, a.Label, got, err, want)
			case !unique && err == nil:
				t.Fatalf("program %d %s: Exit() = b%d, but the scan finds no unique exit", pi, a.Label, got)
			case unique:
				exits++
			}
			if a.Kind != cdfg.RegionFunc && a.HasReturns() {
				returns++
			}
			for _, b := range regions {
				pairs++
				if a.Overlaps(b) != shareBlock(a, b) {
					t.Fatalf("program %d: %s.Overlaps(%s) = %v, block scan says %v",
						pi, a.Label, b.Label, a.Overlaps(b), shareBlock(a, b))
				}
				if a.Overlaps(b) {
					overlapping++
				}
			}
		}
	}
	t.Logf("%d programs, %d region pairs (%d overlapping), %d unique exits, %d loops or ifs with returns, depth up to %d",
		len(progs), pairs, overlapping, exits, returns, maxDepth)
	if overlapping*4 > pairs*3 || returns == 0 || maxDepth < 4 {
		t.Error("the corpus does not exercise the region model: too few disjoint pairs, returns or deep nests")
	}
}
