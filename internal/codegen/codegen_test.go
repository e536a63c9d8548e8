package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/interp"
	"lppart/internal/isa"
	"lppart/internal/iss"
)

// compileAndRun compiles src and executes it on the ISS with ideal memory.
func compileAndRun(t *testing.T, src string) (*cdfg.Program, *Layout, *iss.Result) {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	mp, lay, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := iss.Run(mp, iss.Options{})
	if err != nil {
		t.Fatalf("iss: %v\n%s", err, mp.Listing())
	}
	return ir, lay, res
}

// differential runs src on both the interpreter and the ISS and compares
// the return value, every global and the block profile.
func differential(t *testing.T, src string) {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	mp, lay, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := iss.Run(mp, iss.Options{})
	if err != nil {
		t.Fatalf("iss: %v\n%s", err, mp.Listing())
	}
	off := 0
	for _, f := range ir.Funcs {
		for b, n := range want.Prof.BlockFreq[f.Name] {
			if got.BlockEntries[off+b] != n {
				t.Errorf("%s b%d entries: iss=%d interp=%d", f.Name, b, got.BlockEntries[off+b], n)
			}
		}
		off += len(f.Blocks)
	}
	if got.RV != want.Ret {
		t.Errorf("return value: iss=%d interp=%d\n%s", got.RV, want.Ret, mp.Listing())
	}
	for gi, g := range ir.Globals {
		addr, words, ok := lay.VarAddr(ir, "", true, gi)
		if !ok {
			t.Fatalf("global %s has no address", g.Name)
		}
		wantVals := want.Globals[g.Name]
		for w := int32(0); w < words; w++ {
			if got.Mem[addr+w] != wantVals[w] {
				t.Errorf("global %s[%d]: iss=%d interp=%d", g.Name, w, got.Mem[addr+w], wantVals[w])
			}
		}
	}
}

func TestDifferentialBasics(t *testing.T) {
	cases := map[string]string{
		"return":     "func main() { return 7 * 6; }",
		"arithmetic": "var g; func main() { var a; var b; a=13; b=5; g = a*b + a/b - a%b + (a<<2) + (a>>1) + (a&b) + (a|b) + (a^b); return g; }",
		"unary":      "var g; func main() { var x; x = 9; g = -x + ~x; return !x + !0; }",
		"compare":    "func main() { var a; a = 4; return (a<5) + (a<=4)*10 + (a>3)*100 + (a>=5)*1000 + (a==4)*2 + (a!=4)*3; }",
		"logic":      "func main() { var a; var b; a = 3; b = 0; return (a && b) + (a || b)*10 + (b && b)*100 + (1 && 2)*7; }",
		"if-else":    "var g; func main() { var x; x = 10; if x > 5 { g = 1; } else { g = 2; } if x < 5 { g = g + 10; } return g; }",
		"loop":       "func main() { var i; var s; for i = 0; i < 50; i = i + 1 { s = s + i*i; } return s; }",
		"while":      "func main() { var n; var c; n = 270; while n > 1 { if n % 2 { n = 3*n+1; } else { n = n/2; } c = c + 1; } return c; }",
		"nested":     "var m[64]; func main() { var i; var j; for i=0;i<8;i=i+1 { for j=0;j<8;j=j+1 { m[i*8+j] = i*j; } } return m[63]; }",
		"globals":    "var a[10]; var sum; func main() { var i; for i=0;i<10;i=i+1 { a[i] = i*3+1; } for i=0;i<10;i=i+1 { sum = sum + a[i]; } return sum; }",
		"localarr":   "func main() { var buf[6]; var i; var s; for i=0;i<6;i=i+1 { buf[i] = i ^ 5; } for i=0;i<6;i=i+1 { s = s + buf[i]; } return s; }",
		"constidx":   "var a[4]; func main() { a[0]=1; a[1]=a[0]*2; a[2]=a[1]*2; a[3]=a[2]*2; return a[3]; }",
		"negidx":     "var a[8]; func main() { var i; for i=7;i>=0;i=i-1 { a[i] = i; } return a[0] + a[7]; }",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { differential(t, src) })
	}
}

func TestDifferentialCalls(t *testing.T) {
	cases := map[string]string{
		"simple":    "func add(a, b) { return a + b; } func main() { return add(3, add(4, 5)); }",
		"void":      "var g; func bump() { g = g + 1; } func main() { bump(); bump(); bump(); return g; }",
		"sixargs":   "func f(a,b,c,d,e,f6) { return a+b*2+c*3+d*4+e*5+f6*6; } func main() { return f(1,2,3,4,5,6); }",
		"recursion": "func fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } func main() { return fib(12); }",
		"mutual":    "func even(n) { if n == 0 { return 1; } return odd(n-1); } func odd(n) { if n == 0 { return 0; } return even(n-1); } func main() { return even(10) + odd(7)*10; }",
		"recarr":    "func sumto(n) { var tmp[3]; tmp[0] = n; if n <= 0 { return 0; } tmp[1] = sumto(n-1); return tmp[0] + tmp[1]; } func main() { return sumto(10); }",
		"chain":     "func a(x) { return x+1; } func b(x) { return a(x)*2; } func c(x) { return b(x)+a(x); } func main() { return c(5); }",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { differential(t, src) })
	}
}

func TestDifferentialDSPKernels(t *testing.T) {
	cases := map[string]string{
		"dot": `
var x[32]; var y[32]; var dot;
func main() {
	var i;
	for i = 0; i < 32; i = i + 1 { x[i] = i - 16; y[i] = 3 - i; }
	dot = 0;
	for i = 0; i < 32; i = i + 1 { dot = dot + x[i] * y[i]; }
	return dot;
}`,
		"fir": `
var in[40]; var out[40]; var coef[4];
func main() {
	var i; var k; var acc;
	coef[0]=1; coef[1]=3; coef[2]=3; coef[3]=1;
	for i = 0; i < 40; i = i + 1 { in[i] = (i * 37) % 19 - 9; }
	for i = 3; i < 40; i = i + 1 {
		acc = 0;
		for k = 0; k < 4; k = k + 1 {
			acc = acc + coef[k] * in[i-k];
		}
		out[i] = acc >> 2;
	}
	return out[39];
}`,
		"minmax": `
var v[25]; var mn; var mx;
func main() {
	var i;
	for i = 0; i < 25; i = i + 1 { v[i] = ((i*53) % 31) - 15; }
	mn = v[0]; mx = v[0];
	for i = 1; i < 25; i = i + 1 {
		if v[i] < mn { mn = v[i]; }
		if v[i] > mx { mx = v[i]; }
	}
	return mx - mn;
}`,
		"sat": `
var s[16];
func clip(v, lo, hi) {
	if v < lo { return lo; }
	if v > hi { return hi; }
	return v;
}
func main() {
	var i; var sum;
	for i = 0; i < 16; i = i + 1 { s[i] = clip(i*7-50, -20, 20); sum = sum + s[i]; }
	return sum;
}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { differential(t, src) })
	}
}

// TestDifferentialRandom cross-checks interpreter and ISS on generated
// straight-line-plus-loop programs over safe operators.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	ops := []string{"+", "-", "*", "&", "|", "^"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("%d", rng.Intn(2000)-1000)
			case 1:
				return fmt.Sprintf("g%d", rng.Intn(4))
			default:
				return fmt.Sprintf("(v >> %d)", rng.Intn(8))
			}
		}
		op := ops[rng.Intn(len(ops))]
		return "(" + expr(depth-1) + " " + op + " " + expr(depth-1) + ")"
	}
	for trial := 0; trial < 25; trial++ {
		src := "var g0; var g1; var g2; var g3;\nfunc main() {\n\tvar v; var i;\n\tv = 7;\n"
		for s := 0; s < 6; s++ {
			src += fmt.Sprintf("\tg%d = %s;\n", rng.Intn(4), expr(3))
		}
		src += fmt.Sprintf("\tfor i = 0; i < %d; i = i + 1 {\n", 3+rng.Intn(10))
		src += fmt.Sprintf("\t\tv = v + %s;\n", expr(2))
		src += fmt.Sprintf("\t\tg%d = g%d ^ v;\n\t}\n", rng.Intn(4), rng.Intn(4))
		src += "\treturn v;\n}\n"
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) { differential(t, src) })
	}
}

func TestLayoutAddresses(t *testing.T) {
	ir, lay, _ := compileAndRun(t, `
var s1; var arr[10]; var s2;
func helper(p) { var loc[4]; loc[0] = p; return loc[0]; }
func main() { var x; x = helper(3); return x; }
`)
	// Globals laid out in order, no overlap.
	if lay.GlobalAddr[1] != lay.GlobalAddr[0]+1 {
		t.Errorf("arr addr %d, want s1+1", lay.GlobalAddr[1])
	}
	if lay.GlobalAddr[2] != lay.GlobalAddr[1]+10 {
		t.Errorf("s2 addr %d, want arr+10", lay.GlobalAddr[2])
	}
	// Non-recursive function locals get static addresses.
	addr, words, ok := lay.VarAddr(ir, "helper", false, ir.Func("helper").Params[0])
	if !ok || words != 1 || addr == 0 {
		t.Errorf("helper param: addr=%d words=%d ok=%v", addr, words, ok)
	}
	if lay.Recursive["helper"] || lay.Recursive["main"] {
		t.Error("no function here is recursive")
	}
}

func TestLayoutRecursive(t *testing.T) {
	prog := behav.MustParse("t", `
func f(n) { if n <= 0 { return 0; } return n + f(n-1); }
func main() { return f(5); }
`)
	ir := cdfg.MustBuild(prog)
	_, lay, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if !lay.Recursive["f"] {
		t.Error("f must be marked recursive")
	}
	if lay.Recursive["main"] {
		t.Error("main is not recursive")
	}
	if _, _, ok := lay.VarAddr(ir, "f", false, 0); ok {
		t.Error("recursive locals must have no static home")
	}
	if lay.FrameSize["f"] < 2 {
		t.Errorf("frame size %d, want >= 2 (ra + local)", lay.FrameSize["f"])
	}
}

func TestRegionTagging(t *testing.T) {
	prog := behav.MustParse("t", `
var a[8];
func main() {
	var i;
	for i = 0; i < 8; i = i + 1 { a[i] = i * 2; }
}
`)
	ir := cdfg.MustBuild(prog)
	mp, _, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var loop *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loop = r
		}
	}
	tagged := 0
	for _, ins := range mp.Code {
		if int(ins.Region) == loop.ID {
			tagged++
		}
	}
	if tagged < 5 {
		t.Errorf("only %d instructions tagged with loop region, want >= 5\n%s", tagged, mp.Listing())
	}
}

func TestExcludedRegionEmitsASIC(t *testing.T) {
	prog := behav.MustParse("t", `
var a[8]; var total;
func main() {
	var i;
	for i = 0; i < 8; i = i + 1 { a[i] = i; }
	for i = 0; i < 8; i = i + 1 { total = total + a[i]; }
}
`)
	ir := cdfg.MustBuild(prog)
	var loops []*cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loops = append(loops, r)
		}
	}
	mp, _, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12,
		Exclude: map[int]int{loops[1].ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	asics := 0
	for _, ins := range mp.Code {
		if ins.Op == isa.ASIC {
			asics++
			if ins.Imm != 0 {
				t.Errorf("ASIC id = %d, want 0", ins.Imm)
			}
		}
	}
	if asics != 1 {
		t.Fatalf("found %d ASIC instructions, want 1\n%s", asics, mp.Listing())
	}
	// The excluded loop's adds must be gone: the program shrinks.
	full, _, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Code) >= len(full.Code) {
		t.Errorf("partitioned program (%d instrs) not smaller than full (%d)", len(mp.Code), len(full.Code))
	}
}

func TestExcludeErrors(t *testing.T) {
	prog := behav.MustParse("t", `
func f(n) { var i; var s; for i = 0; i < n; i = i + 1 { s = s + f(i); } return s + 1; }
func main() { return f(2); }
`)
	ir := cdfg.MustBuild(prog)
	var loop *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loop = r
		}
	}
	_, _, err := Compile(ir, Options{MemWords: 1 << 16, Exclude: map[int]int{loop.ID: 0}})
	if err == nil {
		t.Error("excluding a region of a recursive function must fail")
	}
}

func TestProgramListing(t *testing.T) {
	prog := behav.MustParse("t", "func main() { return 1; }")
	ir := cdfg.MustBuild(prog)
	mp, _, err := Compile(ir, Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	listing := mp.Listing()
	if len(listing) == 0 {
		t.Fatal("empty listing")
	}
	for _, want := range []string{"main:", "halt", "li"} {
		found := false
		for i := 0; i+len(want) <= len(listing); i++ {
			if listing[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func TestMemoryTooSmall(t *testing.T) {
	prog := behav.MustParse("t", "var huge[100000]; func main() { }")
	ir := cdfg.MustBuild(prog)
	_, _, err := Compile(ir, Options{MemWords: 1 << 12})
	if err == nil {
		t.Error("oversized data segment must fail compilation")
	}
}

func TestInstructionMixVaries(t *testing.T) {
	// A register-heavy kernel and a memory-walking kernel must produce
	// visibly different load/store fractions — the property the paper's
	// per-application energy differences rest on.
	_, _, regHeavy := compileAndRun(t, `
func main() {
	var x; var i;
	x = 1;
	for i = 0; i < 100; i = i + 1 {
		x = ((x * 5) + (x << 3)) ^ (x >> 2);
		x = x + i;
	}
	return x;
}`)
	_, _, memHeavy := compileAndRun(t, `
var a[100]; var b[100];
func main() {
	var i;
	for i = 0; i < 100; i = i + 1 { b[i] = a[i] + 1; }
	return b[99];
}`)
	frac := func(r *iss.Result) float64 {
		var mem, tot int64
		for c, n := range r.PerClass {
			tot += n
			if c == 4 || c == 5 { // load, store
				mem += n
			}
		}
		return float64(mem) / float64(tot)
	}
	fr, fm := frac(regHeavy), frac(memHeavy)
	if fm < fr+0.1 {
		t.Errorf("memory-walking kernel mem fraction %.2f not above register kernel %.2f", fm, fr)
	}
}

// TestBlockAndArrayTables checks what the ISS profiles and bounds-checks
// with: exactly sized tables, one distinct first instruction per
// compiled block, none for blocks an ASIC replaces, every array access
// tagged with its array's extent, and each block's IR ops split at its
// calls: BlockOps holds the ops up to the first Call, and each CALL's
// Imm the ops after it up to the next Call or the block's end.
func TestBlockAndArrayTables(t *testing.T) {
	src := `
var g[8]; var s;
func rec(n) { var fr[3]; if n <= 0 { return 0; } fr[n % 3] = n; return fr[n % 3] + rec(n - 1); }
func main() { var i; var loc[4]; for i = 0; i < 8; i = i + 1 { g[i] = i; loc[i & 3] = g[i]; } s = rec(4) + loc[2]; }
`
	ir := cdfg.MustBuild(behav.MustParse("t", src))
	mp, lay, err := Compile(ir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// starts returns how many blocks have a marked first instruction;
	// each block is marked at most once.
	starts := func(mp *isa.Program) int {
		seen := make(map[int32]bool)
		for _, ins := range mp.Code {
			if ins.Block != 0 {
				if seen[ins.Block] {
					t.Errorf("block %d marked twice", ins.Block-1)
				}
				seen[ins.Block] = true
			}
		}
		return len(seen)
	}
	nBlocks := 0
	var ops, after []int32
	for _, f := range ir.Funcs {
		nBlocks += len(f.Blocks)
		for _, b := range f.Blocks {
			seg := []int32{0}
			for _, op := range b.Ops {
				seg[len(seg)-1]++
				if op.Code == cdfg.Call {
					seg = append(seg, 0)
				}
			}
			ops = append(ops, seg[0])
			after = append(after, seg[1:]...)
		}
	}
	if fmt.Sprint(mp.BlockOps) != fmt.Sprint(ops) || cap(mp.BlockOps) != nBlocks {
		t.Errorf("BlockOps %v (cap %d), want %v", mp.BlockOps, cap(mp.BlockOps), ops)
	}
	var imms []int32
	for _, ins := range mp.Code[1:] { // past the startup stub's call
		if ins.Op == isa.CALL {
			imms = append(imms, ins.Imm)
		}
	}
	if fmt.Sprint(imms) != fmt.Sprint(after) || mp.Code[0].Imm != 0 {
		t.Errorf("CALL op counts %v (startup %d), want %v and 0", imms, mp.Code[0].Imm, after)
	}
	if got := starts(mp); got != nBlocks {
		t.Errorf("%d blocks have a first instruction, want all %d", got, nBlocks)
	}
	want := []isa.Extent{
		{Base: lay.GlobalAddr[0], Len: 8},
		{Base: lay.FrameOff["rec"][1], Len: 3, SP: true},
		{Base: lay.StaticBase["main"][1], Len: 4},
	}
	if fmt.Sprint(mp.Arrays) != fmt.Sprint(want) || cap(mp.Arrays) != len(want) {
		t.Errorf("Arrays %v (cap %d), want %v", mp.Arrays, cap(mp.Arrays), want)
	}
	tagged := 0
	for _, ins := range mp.Code {
		if (ins.Op == isa.LD || ins.Op == isa.ST) && ins.Target != 0 {
			tagged++
		}
	}
	if tagged != 6 { // g[i]=, loc[]=, g[i], fr[]=, fr[], loc[2]
		t.Errorf("%d tagged array accesses, want 6\n%s", tagged, mp.Listing())
	}

	// An excluded loop's blocks leave the stream: only the blocks still
	// compiled keep a first instruction.
	loop := ir.Func("main").Root.Children[0]
	part, _, err := Compile(ir, Options{Exclude: map[int]int{loop.ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := starts(part); got != nBlocks-len(loop.Blocks) {
		t.Errorf("partitioned: %d block starts, want %d", got, nBlocks-len(loop.Blocks))
	}
}
