package cdfg

import (
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/tech"
)

func mustBuild(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ir
}

func TestBuildMinimal(t *testing.T) {
	ir := mustBuild(t, "func main() {}")
	f := ir.Func("main")
	if f == nil {
		t.Fatal("no main function")
	}
	entry := f.Block(f.Entry)
	term := entry.Terminator()
	if term == nil || term.Code != Ret {
		t.Errorf("entry block must end in implicit ret, got %v", term)
	}
	if f.Root == nil || f.Root.Kind != RegionFunc {
		t.Error("function region missing")
	}
}

func TestBuildGlobals(t *testing.T) {
	ir := mustBuild(t, "var a[8]; var s; func main() { s = 1; a[0] = s; }")
	if len(ir.Globals) != 2 || ir.Globals[0].Len != 8 || ir.Globals[1].Len != 0 {
		t.Fatalf("globals wrong: %+v", ir.Globals)
	}
	dump := ir.Dump()
	if !strings.Contains(dump, "store a[") {
		t.Errorf("missing store in dump:\n%s", dump)
	}
}

func TestBuildAssignFusesDst(t *testing.T) {
	// x = y + z must produce a single add writing x, no extra copy.
	ir := mustBuild(t, "func main() { var x; var y; var z; y=1; z=2; x = y + z; }")
	f := ir.Func("main")
	adds := 0
	copies := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			switch op.Code {
			case Add:
				adds++
				if ir.VarName(f, op.Dst) != "x" {
					t.Errorf("add writes %s, want x", ir.VarName(f, op.Dst))
				}
			case Copy:
				copies++
			}
		}
	}
	if adds != 1 || copies != 0 {
		t.Errorf("adds=%d copies=%d, want 1 add and 0 copies", adds, copies)
	}
}

func TestBuildForLoopStructure(t *testing.T) {
	ir := mustBuild(t, `
var acc;
func main() {
	var i;
	for i = 0; i < 10; i = i + 1 {
		acc = acc + i;
	}
}
`)
	f := ir.Func("main")
	regions := f.Root.AllRegions()
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2 (func + loop)", len(regions))
	}
	loop := regions[1]
	if loop.Kind != RegionLoop {
		t.Fatalf("second region is %v, want loop", loop.Kind)
	}
	if loop.Parent != f.Root {
		t.Error("loop parent is not the function region")
	}
	// The loop header must contain the comparison and conditional branch.
	header := f.Block(loop.Entry)
	hasCmp, hasCBr := false, false
	for _, op := range header.Ops {
		if op.Code == Lt {
			hasCmp = true
		}
		if op.Code == CBr {
			hasCBr = true
		}
	}
	if !hasCmp || !hasCBr {
		t.Errorf("loop header missing cmp/cbr:\n%s", ir.Dump())
	}
	// The init assignment (i = 0) must be outside the loop region.
	entry := f.Block(f.Entry)
	foundInit := false
	for _, op := range entry.Ops {
		if op.Code == ConstOp && op.Imm == 0 && ir.VarName(f, op.Dst) == "i" {
			foundInit = true
		}
	}
	if !foundInit {
		t.Errorf("loop init not in entry block:\n%s", ir.Dump())
	}
	if loop.Contains(f.Entry) {
		t.Error("loop region must not contain the function entry block")
	}
	// The back edge: some block in the region branches to the header.
	backEdge := false
	for _, bid := range loop.Blocks {
		for _, succ := range f.Block(bid).Succs() {
			if succ == loop.Entry && bid != loop.Entry {
				backEdge = true
			}
		}
	}
	if !backEdge {
		t.Errorf("no back edge to loop header:\n%s", ir.Dump())
	}
}

func TestBuildNestedLoops(t *testing.T) {
	ir := mustBuild(t, `
var m[16];
func main() {
	var i; var j;
	for i = 0; i < 4; i = i + 1 {
		for j = 0; j < 4; j = j + 1 {
			m[i*4+j] = i + j;
		}
	}
}
`)
	f := ir.Func("main")
	regions := f.Root.AllRegions()
	if len(regions) != 3 {
		t.Fatalf("got %d regions, want 3 (func, outer, inner)", len(regions))
	}
	outer, inner := regions[1], regions[2]
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if inner.Depth() != 2 || outer.Depth() != 1 {
		t.Errorf("depths: inner=%d outer=%d, want 2,1", inner.Depth(), outer.Depth())
	}
	// Every inner block must also be in the outer region.
	for _, bid := range inner.Blocks {
		if !outer.Contains(bid) {
			t.Errorf("inner block %d not in outer region", bid)
		}
	}
}

func TestBuildIfRegions(t *testing.T) {
	ir := mustBuild(t, `
var x;
func main() {
	x = 3;
	if x > 1 {
		x = x - 1;
	} else {
		x = x + 1;
	}
	x = x * 2;
}
`)
	f := ir.Func("main")
	regions := f.Root.AllRegions()
	if len(regions) != 2 || regions[1].Kind != RegionIf {
		t.Fatalf("want func+if regions, got %v", regions)
	}
	ifr := regions[1]
	// The multiply after the if must not be inside the if region.
	for _, bid := range ifr.Blocks {
		for _, op := range f.Block(bid).Ops {
			if op.Code == Mul {
				t.Error("post-if code leaked into if region")
			}
		}
	}
	// The condition compare must be inside the region entry.
	entry := f.Block(ifr.Entry)
	hasGt := false
	for _, op := range entry.Ops {
		if op.Code == Gt {
			hasGt = true
		}
	}
	if !hasGt {
		t.Errorf("if condition not in region entry:\n%s", ir.Dump())
	}
}

func TestBuildWhile(t *testing.T) {
	ir := mustBuild(t, `
func main() {
	var n;
	n = 100;
	while n > 0 {
		n = n - 7;
	}
}
`)
	f := ir.Func("main")
	regions := f.Root.AllRegions()
	if len(regions) != 2 || regions[1].Kind != RegionLoop {
		t.Fatalf("want func+loop regions, got %d", len(regions))
	}
}

func TestBuildCallsAndReturns(t *testing.T) {
	ir := mustBuild(t, `
func sq(v) { return v * v; }
func main() {
	var r;
	r = sq(9);
	sq(r);
}
`)
	f := ir.Func("main")
	callCount := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Code == Call {
				callCount++
				if op.Callee != "sq" || len(op.Args) != 1 {
					t.Errorf("bad call op: %+v", op)
				}
			}
		}
	}
	if callCount != 2 {
		t.Errorf("got %d calls, want 2", callCount)
	}
	sq := ir.Func("sq")
	if sq.Root.HasReturns() != true {
		t.Error("sq body must report returns")
	}
	if f.Root.HasCalls() != true {
		t.Error("main must report calls")
	}
	if sq.Root.HasCalls() {
		t.Error("sq has no calls")
	}
}

func TestBuildEarlyReturnRegion(t *testing.T) {
	ir := mustBuild(t, `
func f(a) {
	while a > 0 {
		if a == 3 {
			return 99;
		}
		a = a - 1;
	}
	return 0;
}
func main() { var x; x = f(5); }
`)
	f := ir.Func("f")
	var loop *Region
	for _, r := range f.Root.AllRegions() {
		if r.Kind == RegionLoop {
			loop = r
		}
	}
	if loop == nil {
		t.Fatal("no loop region")
	}
	if !loop.HasReturns() {
		t.Error("loop with early return must report HasReturns")
	}
}

func TestOpcodeClassMapping(t *testing.T) {
	cases := []struct {
		code Opcode
		want tech.OpClass
	}{
		{Add, tech.OpAddSub}, {Sub, tech.OpAddSub}, {Neg, tech.OpAddSub},
		{Mul, tech.OpMul}, {Div, tech.OpDivRem}, {Rem, tech.OpDivRem},
		{Shl, tech.OpShift}, {Shr, tech.OpShift},
		{And, tech.OpLogic}, {LNot, tech.OpLogic},
		{Lt, tech.OpCompare}, {Eq, tech.OpCompare},
		{Copy, tech.OpMove},
		{Load, tech.OpMemory}, {Store, tech.OpMemory},
	}
	for _, c := range cases {
		got, ok := c.code.Class()
		if !ok || got != c.want {
			t.Errorf("%v.Class() = %v,%v want %v,true", c.code, got, ok, c.want)
		}
	}
	for _, code := range []Opcode{Nop, ConstOp, Call, Ret, Br, CBr} {
		if _, ok := code.Class(); ok {
			t.Errorf("%v must not map to a datapath class", code)
		}
	}
}

func TestBinOpcodeRoundTrip(t *testing.T) {
	for b := behav.OpAdd; b <= behav.OpLOr; b++ {
		code := BinOpcode(b)
		if !code.IsBinary() {
			t.Errorf("BinOpcode(%v) = %v is not binary", b, code)
		}
		if got := BehavBinOp(code); got != b {
			t.Errorf("round trip %v -> %v -> %v", b, code, got)
		}
	}
}

func TestUsesAndDef(t *testing.T) {
	ir := mustBuild(t, "var g; func main() { var x; x = g + 2; g = x; }")
	f := ir.Func("main")
	var addOp *Op
	for _, b := range f.Blocks {
		for i := range b.Ops {
			if b.Ops[i].Code == Add {
				addOp = &b.Ops[i]
			}
		}
	}
	if addOp == nil {
		t.Fatal("no add op")
	}
	uses := addOp.Uses()
	if len(uses) != 1 || !uses[0].Global {
		t.Errorf("add uses = %+v, want [global g]", uses)
	}
	if !addOp.Def().Valid() || addOp.Def().Global {
		t.Errorf("add def = %+v, want local x", addOp.Def())
	}
}

func TestRegionOpsAndLabels(t *testing.T) {
	ir := mustBuild(t, `
func main() {
	var i; var s;
	s = 0;
	for i = 0; i < 8; i = i + 1 { s = s + i; }
}
`)
	var loop *Region
	for _, r := range ir.Regions() {
		if r.Kind == RegionLoop {
			loop = r
		}
	}
	if loop == nil {
		t.Fatal("no loop region")
	}
	if !strings.HasPrefix(loop.Label, "main/loop@") {
		t.Errorf("loop label %q", loop.Label)
	}
	if got := ir.RegionByLabel(loop.Label); got != loop {
		t.Error("RegionByLabel failed to find the loop")
	}
	if ir.RegionByLabel("nonexistent") != nil {
		t.Error("RegionByLabel should return nil for unknown labels")
	}
	ops := loop.Ops()
	if len(ops) == 0 {
		t.Fatal("loop region has no ops")
	}
	hasAdd := false
	for _, op := range ops {
		if op.Code == Add {
			hasAdd = true
		}
	}
	if !hasAdd {
		t.Error("loop ops missing the add")
	}
}

func TestBlockSuccs(t *testing.T) {
	ir := mustBuild(t, `
func main() {
	var x;
	x = 1;
	if x { x = 2; }
}
`)
	f := ir.Func("main")
	sawCBr, sawBr, sawRet := false, false, false
	for _, b := range f.Blocks {
		t1 := b.Terminator()
		if t1 == nil {
			t.Errorf("block b%d missing terminator", b.ID)
			continue
		}
		switch t1.Code {
		case CBr:
			sawCBr = true
			if len(b.Succs()) != 2 {
				t.Error("cbr must have 2 successors")
			}
		case Br:
			sawBr = true
			if len(b.Succs()) != 1 {
				t.Error("br must have 1 successor")
			}
		case Ret:
			sawRet = true
			if len(b.Succs()) != 0 {
				t.Error("ret must have 0 successors")
			}
		}
	}
	if !sawCBr || !sawBr || !sawRet {
		t.Errorf("terminator coverage: cbr=%v br=%v ret=%v", sawCBr, sawBr, sawRet)
	}
}

func TestAllBlocksTerminatedProperty(t *testing.T) {
	// Structural invariant across a batch of varied programs: every block
	// ends in a terminator and every successor ID is in range.
	sources := []string{
		"func main() {}",
		"func main() { var x; x = 1; if x { x = 2; } else { x = 3; } }",
		"func main() { var i; for i = 0; i < 3; i = i + 1 { } }",
		"func main() { var i; while i < 2 { i = i + 1; } }",
		"func f() { return; } func main() { f(); }",
		"func f(a) { if a { return 1; } return 0; } func main() { var x; x = f(1); }",
		`var a[4]; func main() { var i; for i=0;i<4;i=i+1 { a[i] = i*i; } }`,
		`func main() { var i; var j; for i=0;i<2;i=i+1 { for j=0;j<2;j=j+1 { if i==j { i=i; } } } }`,
	}
	for _, src := range sources {
		ir := mustBuild(t, src)
		for _, f := range ir.Funcs {
			for _, b := range f.Blocks {
				term := b.Terminator()
				if term == nil {
					t.Errorf("%s: block b%d of %s unterminated\n%s", src, b.ID, f.Name, ir.Dump())
					continue
				}
				for _, s := range b.Succs() {
					if s < 0 || s >= len(f.Blocks) {
						t.Errorf("%s: block b%d successor %d out of range", src, b.ID, s)
					}
				}
				// Terminators only at the end.
				for i := 0; i < len(b.Ops)-1; i++ {
					if b.Ops[i].Code.IsTerminator() {
						t.Errorf("%s: block b%d has terminator mid-block at %d", src, b.ID, i)
					}
				}
			}
		}
	}
}

func TestRegionBlocksNestingProperty(t *testing.T) {
	// Invariant: a child region's blocks are a subset of its parent's.
	ir := mustBuild(t, `
var a[64];
func main() {
	var i; var j; var s;
	for i = 0; i < 8; i = i + 1 {
		for j = 0; j < 8; j = j + 1 {
			if (i+j) & 1 {
				s = s + a[i*8+j];
			} else {
				s = s - a[i*8+j];
			}
		}
	}
	a[0] = s;
}
`)
	for _, r := range ir.Regions() {
		for _, c := range r.Children {
			for _, bid := range c.Blocks {
				if !r.Contains(bid) {
					t.Errorf("region %s: child %s block %d not contained", r.Label, c.Label, bid)
				}
			}
			if c.Parent != r {
				t.Errorf("region %s: child %s has wrong parent", r.Label, c.Label)
			}
		}
	}
}

func TestDumpStable(t *testing.T) {
	ir := mustBuild(t, "var g; func main() { g = 1 + 2; }")
	d1, d2 := ir.Dump(), ir.Dump()
	if d1 != d2 {
		t.Error("Dump is not deterministic")
	}
	if !strings.Contains(d1, "program t") || !strings.Contains(d1, "func main(") {
		t.Errorf("dump malformed:\n%s", d1)
	}
}

// TestSecondStretchPanics: a block made cur again after another block
// took over would split its ops across two stretches of the function's
// arena; the builder refuses.
func TestSecondStretchPanics(t *testing.T) {
	b := &builder{fn: &Function{Name: "f"}, sc: new(buildScratch)}
	first, second := b.newBlock(), b.newBlock()
	b.setCur(first)
	b.emit(Op{Code: Br, Target: second.ID})
	b.setCur(second)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "b0 is cur a second time") {
			t.Errorf("setCur back to b0 = panic %v, want the second-stretch panic", r)
		}
	}()
	b.setCur(first)
}
