package iss

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lppart/internal/isa"
	"lppart/internal/tech"
)

// asm builds a program from instructions with a 64Ki-word memory.
func asm(code ...isa.Instr) *isa.Program {
	return &isa.Program{Name: "t", Code: code, MemWords: 1 << 16}
}

func TestRunHaltReturnsRV(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: isa.RV, Imm: 42},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != 42 {
		t.Errorf("RV = %d, want 42", res.RV)
	}
	if res.Instrs != 1 {
		t.Errorf("instrs = %d, want 1 (HALT not counted)", res.Instrs)
	}
}

func TestALUAndImmediates(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 10},
		isa.Instr{Op: isa.ADD, Rd: 9, Rs1: 8, Imm: 5, UseImm: true},
		isa.Instr{Op: isa.LI, Rd: 10, Imm: 3},
		isa.Instr{Op: isa.MUL, Rd: 11, Rs1: 9, Rs2: 10},
		isa.Instr{Op: isa.SRA, Rd: 12, Rs1: 11, Imm: 1, UseImm: true},
		isa.Instr{Op: isa.CMPLT, Rd: 13, Rs1: 12, Imm: 100, UseImm: true},
		isa.Instr{Op: isa.MOV, Rd: isa.RV, Rs1: 12},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != (10+5)*3>>1 {
		t.Errorf("RV = %d, want 22", res.RV)
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: isa.Zero, Imm: 99},
		isa.Instr{Op: isa.MOV, Rd: isa.RV, Rs1: isa.Zero},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != 0 {
		t.Errorf("r0 must stay 0, got %d", res.RV)
	}
}

func TestLoadStore(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 1234},
		isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: 8, Imm: 100},
		isa.Instr{Op: isa.LD, Rd: isa.RV, Rs1: isa.Zero, Imm: 100},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != 1234 || res.Mem[100] != 1234 {
		t.Errorf("load/store failed: RV=%d mem=%d", res.RV, res.Mem[100])
	}
}

func TestBranchesAndCalls(t *testing.T) {
	// A loop: count down from 5 via BNEZ; then CALL a function that
	// doubles RV and returns via JR RA.
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 5},                         // 0
		isa.Instr{Op: isa.ADD, Rd: 9, Rs1: 9, Imm: 2, UseImm: true},  // 1: loop body
		isa.Instr{Op: isa.SUB, Rd: 8, Rs1: 8, Imm: 1, UseImm: true},  // 2
		isa.Instr{Op: isa.BNEZ, Rs1: 8, Target: 1},                   // 3
		isa.Instr{Op: isa.MOV, Rd: isa.RV, Rs1: 9},                   // 4
		isa.Instr{Op: isa.CALL, Target: 7},                           // 5
		isa.Instr{Op: isa.HALT},                                      // 6
		isa.Instr{Op: isa.ADD, Rd: isa.RV, Rs1: isa.RV, Rs2: isa.RV}, // 7: double
		isa.Instr{Op: isa.JR, Rs1: isa.RA},                           // 8
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != 20 {
		t.Errorf("RV = %d, want 20 (5 iterations x2, doubled)", res.RV)
	}
}

func TestEnergyAccounting(t *testing.T) {
	lib := tech.Default()
	m := &lib.Micro
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 1},
		isa.Instr{Op: isa.ADD, Rd: 8, Rs1: 8, Rs2: 8},
		isa.Instr{Op: isa.ADD, Rd: 8, Rs1: 8, Rs2: 8},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{Micro: m})
	if err != nil {
		t.Fatal(err)
	}
	// First instruction: move after nop (overhead); second: ALU after
	// move (overhead); third: ALU after ALU (no overhead).
	want := m.InstrEnergy(tech.IClassNop, tech.IClassMove) +
		m.InstrEnergy(tech.IClassMove, tech.IClassALU) +
		m.BaseEnergy[tech.IClassALU]
	if res.Energy != want {
		t.Errorf("energy %v, want %v", res.Energy, want)
	}
	if res.PerClass[tech.IClassALU] != 2 || res.PerClass[tech.IClassMove] != 1 {
		t.Errorf("class counts wrong: %v", res.PerClass)
	}
}

func TestCycleAccounting(t *testing.T) {
	lib := tech.Default()
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 7},
		isa.Instr{Op: isa.MUL, Rd: 8, Rs1: 8, Rs2: 8},
		isa.Instr{Op: isa.LD, Rd: 9, Rs1: isa.Zero, Imm: 10},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := &lib.Micro
	want := int64(m.CyclesFor[tech.IClassMove] + m.CyclesFor[tech.IClassMul] + m.CyclesFor[tech.IClassLoad])
	if res.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Cycles, want)
	}
}

// stallMem injects fixed stalls to verify the MemSystem wiring.
type stallMem struct{ fetch, read, write int }

func (s *stallMem) FetchInstr(uint32) int { return s.fetch }
func (s *stallMem) ReadData(int32) int    { return s.read }
func (s *stallMem) WriteData(int32) int   { return s.write }

func TestMemSystemStalls(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LD, Rd: 8, Rs1: isa.Zero, Imm: 0},
		isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: 8, Imm: 1},
		isa.Instr{Op: isa.HALT},
	)
	base, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := Run(p, Options{Mem: &stallMem{fetch: 1, read: 10, write: 20}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 fetches (LD, ST) + 10 + 20 extra cycles.
	if got := stalled.Cycles - base.Cycles; got != 2+10+20 {
		t.Errorf("stall cycles = %d, want 32", got)
	}
}

func TestRegionAttribution(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 3, Region: 7},
		isa.Instr{Op: isa.ADD, Rd: 8, Rs1: 8, Rs2: 8, Region: 7},
		isa.Instr{Op: isa.ADD, Rd: 9, Rs1: 8, Rs2: 8, Region: -1},
		isa.Instr{Op: isa.HALT},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r7 := res.Regions[7]
	if r7 == nil || r7.Instrs != 2 {
		t.Fatalf("region 7 stats missing or wrong: %+v", r7)
	}
	if r7.Energy <= 0 || r7.Cycles <= 0 {
		t.Error("region energy/cycles must be positive")
	}
	if res.Regions[-1] == nil || res.Regions[-1].Instrs != 1 {
		t.Error("untagged instruction must land in region -1")
	}
}

func TestUtilizationMeasured(t *testing.T) {
	lib := tech.Default()
	// A multiply-only stream keeps the multiplier busy and the others
	// idle; an ALU-only stream the reverse.
	mulStream := make([]isa.Instr, 0, 20)
	for i := 0; i < 19; i++ {
		mulStream = append(mulStream, isa.Instr{Op: isa.MUL, Rd: 8, Rs1: 8, Rs2: 8})
	}
	mulStream = append(mulStream, isa.Instr{Op: isa.HALT})
	res, err := Run(asm(mulStream...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization(&lib.Micro)
	if u <= 0 || u > 1 {
		t.Errorf("utilization %g out of range", u)
	}
	// Only 1 of 5 core resources is used: U around 1/5.
	if u < 0.1 || u > 0.3 {
		t.Errorf("mul-stream utilization %g, want ~0.2", u)
	}
}

func TestTrapsAndLimits(t *testing.T) {
	div0 := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 1},
		isa.Instr{Op: isa.DIV, Rd: 8, Rs1: 8, Rs2: 9},
		isa.Instr{Op: isa.HALT},
	)
	if _, err := Run(div0, Options{}); err == nil || !strings.Contains(err.Error(), "zero") {
		t.Errorf("div by zero: %v", err)
	}
	oob := asm(
		isa.Instr{Op: isa.LD, Rd: 8, Rs1: isa.Zero, Imm: -5},
		isa.Instr{Op: isa.HALT},
	)
	if _, err := Run(oob, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("oob load: %v", err)
	}
	spin := asm(isa.Instr{Op: isa.B, Target: 0})
	if _, err := Run(spin, Options{MaxInstrs: 1000}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("instruction limit: %v", err)
	}
	badPC := asm(isa.Instr{Op: isa.B, Target: 99})
	if _, err := Run(badPC, Options{}); err == nil || !strings.Contains(err.Error(), "pc out of range") {
		t.Errorf("bad pc: %v", err)
	}
	noHandler := asm(isa.Instr{Op: isa.ASIC, Imm: 0}, isa.Instr{Op: isa.HALT})
	if _, err := Run(noHandler, Options{}); err == nil || !strings.Contains(err.Error(), "handler") {
		t.Errorf("ASIC without handler: %v", err)
	}
}

// fakeASIC counts invocations and writes a marker to memory.
type fakeASIC struct {
	calls  int
	cycles int64
}

func (f *fakeASIC) RunASIC(id int32, mem []int32) (int64, error) {
	f.calls++
	mem[500] = 777
	return f.cycles, nil
}

func TestASICRendezvous(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.ASIC, Imm: 0},
		isa.Instr{Op: isa.LD, Rd: isa.RV, Rs1: isa.Zero, Imm: 500},
		isa.Instr{Op: isa.HALT},
	)
	h := &fakeASIC{cycles: 12345}
	res, err := Run(p, Options{ASIC: h})
	if err != nil {
		t.Fatal(err)
	}
	if h.calls != 1 {
		t.Errorf("handler called %d times, want 1", h.calls)
	}
	if res.RV != 777 {
		t.Error("ASIC's memory write not visible to the µP")
	}
	if res.ASICCycles != 12345 {
		t.Errorf("ASIC cycles = %d, want 12345", res.ASICCycles)
	}
	// µP is shut down during the ASIC run: its energy covers only its
	// own 3 instructions (trigger + load + halt prologue-free).
	if res.TotalCycles() != res.Cycles+12345 {
		t.Error("total cycles must include the ASIC time")
	}
}

func TestUtilizationZeroCycles(t *testing.T) {
	var rs RegionStat
	lib := tech.Default()
	if u := rs.Utilization(&lib.Micro); u != 0 {
		t.Errorf("empty region utilization %g, want 0", u)
	}
}

// TestIndexTrap bounds array accesses by their extents: a static array
// at a fixed address and one in a stack frame, SP-relative.
func TestIndexTrap(t *testing.T) {
	static := func(imm int32) *isa.Program {
		p := asm(
			isa.Instr{Op: isa.LD, Rd: 8, Rs1: isa.Zero, Imm: imm, Target: 1},
			isa.Instr{Op: isa.HALT},
		)
		p.Arrays = []isa.Extent{{Base: 100, Len: 3}}
		return p
	}
	if _, err := Run(static(102), Options{}); err != nil {
		t.Errorf("last element: %v", err)
	}
	for imm, want := range map[int32]string{103: "index 3 out of range [0,3)", 99: "index -1 out of range [0,3)"} {
		if _, err := Run(static(imm), Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("load at %d: %v, want %q", imm, err, want)
		}
	}
	frame := asm(
		isa.Instr{Op: isa.SUB, Rd: isa.SP, Rs1: isa.SP, Imm: 4, UseImm: true},
		isa.Instr{Op: isa.LI, Rd: 9, Imm: 2},
		isa.Instr{Op: isa.ADD, Rd: isa.AT, Rs1: isa.SP, Rs2: 9},
		isa.Instr{Op: isa.ST, Rs1: isa.AT, Rs2: 9, Imm: 1, Target: 1},
		isa.Instr{Op: isa.HALT},
	)
	frame.Arrays = []isa.Extent{{Base: 1, Len: 2, SP: true}}
	if _, err := Run(frame, Options{}); err == nil || !strings.Contains(err.Error(), "index 2 out of range [0,2)") {
		t.Errorf("frame store: %v", err)
	}
	frame.Arrays[0].Len = 3
	if _, err := Run(frame, Options{}); err != nil {
		t.Errorf("frame store in range: %v", err)
	}
}

// TestDepthLimit counts CALL up and JR down: runaway recursion faults,
// while many calls in sequence never grow the depth past one.
func TestDepthLimit(t *testing.T) {
	recurse := asm(
		isa.Instr{Op: isa.CALL, Target: 2},
		isa.Instr{Op: isa.HALT},
		isa.Instr{Op: isa.CALL, Target: 2},
	)
	if _, err := Run(recurse, Options{}); err == nil || !strings.Contains(err.Error(), "call depth exceeds 1024") {
		t.Errorf("runaway recursion: %v", err)
	}
	sequence := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 2000},
		isa.Instr{Op: isa.CALL, Target: 5},
		isa.Instr{Op: isa.SUB, Rd: 8, Rs1: 8, Imm: 1, UseImm: true},
		isa.Instr{Op: isa.BNEZ, Rs1: 8, Target: 1},
		isa.Instr{Op: isa.HALT},
		isa.Instr{Op: isa.JR, Rs1: isa.RA},
	)
	if _, err := Run(sequence, Options{}); err != nil {
		t.Errorf("2000 calls in sequence: %v", err)
	}
}

// TestBlockProfile counts block entries and charges each entry its
// block's IR ops against the step limit, which a program with block marks
// takes from MaxInstrs: the 11 instructions below stay within it while
// the 17 IR steps reach it.
func TestBlockProfile(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 5, Block: 1},
		isa.Instr{Op: isa.SUB, Rd: 8, Rs1: 8, Imm: 1, UseImm: true, Block: 2},
		isa.Instr{Op: isa.BNEZ, Rs1: 8, Target: 1},
		isa.Instr{Op: isa.HALT},
	)
	p.BlockOps = []int32{2, 3}
	res, err := Run(p, Options{MaxInstrs: 2 + 5*3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BlockEntries; len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("block entries %v, want [1 5]", got)
	}
	if _, err := Run(p, Options{MaxInstrs: 2 + 5*3 - 1}); err == nil || !strings.Contains(err.Error(), "step limit 16 exceeded") {
		t.Errorf("one step over: %v", err)
	}
	// Without block ops, the same limit bounds only the instructions and
	// nothing is counted.
	p.BlockOps = nil
	if res, err := Run(p, Options{MaxInstrs: 12}); err != nil {
		t.Errorf("run without block ops: %v", err)
	} else if res.BlockEntries != nil {
		t.Errorf("run without block ops counted block entries %v", res.BlockEntries)
	}
}

// fetchCounter counts instruction fetches.
type fetchCounter struct{ n int }

func (f *fetchCounter) FetchInstr(uint32) int { f.n++; return 0 }
func (f *fetchCounter) ReadData(int32) int    { return 0 }
func (f *fetchCounter) WriteData(int32) int   { return 0 }

// TestRunsOnPastInstructionLimit: a program with block marks runs on
// past the instruction limit, without the memory system, until it halts
// (reporting the limit) or faults (reporting the fault).
func TestRunsOnPastInstructionLimit(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 5, Block: 1},
		isa.Instr{Op: isa.SUB, Rd: 8, Rs1: 8, Imm: 1, UseImm: true, Block: 2},
		isa.Instr{Op: isa.BNEZ, Rs1: 8, Target: 1},
		isa.Instr{Op: isa.HALT},
	)
	p.BlockOps = []int32{1, 1}
	mem := &fetchCounter{}
	_, err := Run(p, Options{MaxInstrs: 8, Mem: mem})
	var se *SimError
	if !errors.As(err, &se) || se.Kind != Machine || se.Msg != "instruction limit 8 exceeded" || se.PC != 2 {
		t.Errorf("error %#v, want the instruction limit at pc 2", err)
	}
	if mem.n != 8 {
		t.Errorf("%d fetches reached the memory system, want the 8 within the limit", mem.n)
	}

	p.Code = append(p.Code[:3], isa.Instr{Op: isa.DIV, Rd: 9, Rs1: 8, Rs2: isa.Zero}, isa.Instr{Op: isa.HALT})
	if _, err := Run(p, Options{MaxInstrs: 8}); !errors.As(err, &se) || se.Kind != Div || se.PC != 3 {
		t.Errorf("error %v, want the division by zero at pc 3", err)
	}
}

// TestStepChargeSplitAtCalls: a block charges its ops up to its first
// call at entry and the rest when the call returns, so a step limit
// that the callee stays within trips in the caller's later segment,
// located by that segment's start (the instruction after the CALL).
func TestStepChargeSplitAtCalls(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 1, Block: 1},
		isa.Instr{Op: isa.CALL, Target: 4, Imm: 2},
		isa.Instr{Op: isa.LI, Rd: 9, Imm: 2},
		isa.Instr{Op: isa.HALT},
		isa.Instr{Op: isa.JR, Rs1: isa.RA, Block: 2},
	)
	p.BlockOps = []int32{2, 1}
	if _, err := Run(p, Options{MaxInstrs: 5}); err != nil {
		t.Fatalf("5 steps within a limit of 5: %v", err)
	}
	_, err := Run(p, Options{MaxInstrs: 4})
	var se *SimError
	if !errors.As(err, &se) || se.Kind != Step || se.PC != 2 || se.Op != 1 {
		t.Errorf("error %#v, want the step limit at op 1 of the segment at pc 2", err)
	}
}

// TestReturnNotAfterCall: on a profiled run, a return to an instruction
// that does not follow a CALL is a machine fault. A return that jumps to
// itself would otherwise charge no step, and once the instruction limit
// tripped, nothing would stop the run; it reports that limit instead.
func TestReturnNotAfterCall(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.CALL, Target: 2, Imm: 1, Block: 1},
		isa.Instr{Op: isa.HALT},
		isa.Instr{Op: isa.LI, Rd: isa.RA, Imm: 3, Block: 2},
		isa.Instr{Op: isa.JR, Rs1: isa.RA},
	)
	p.BlockOps = []int32{1, 1}
	if _, err := Run(p, Options{}); err == nil || err.Error() != "iss: pc=3: return to pc 3, not after a call" {
		t.Errorf("error %v, want the return at pc 3", err)
	}
	if _, err := Run(p, Options{MaxInstrs: 2}); err == nil || err.Error() != "iss: pc=3: instruction limit 2 exceeded" {
		t.Errorf("error %v, want the instruction limit", err)
	}
}

// TestStackFloor: a stack pointer below the static data's end is a
// machine fault at the instruction that moves it there.
func TestStackFloor(t *testing.T) {
	p := asm(
		isa.Instr{Op: isa.SUB, Rd: isa.SP, Rs1: isa.SP, Imm: 1<<16 - 10, UseImm: true},
		isa.Instr{Op: isa.SUB, Rd: isa.SP, Rs1: isa.SP, Imm: 1, UseImm: true},
		isa.Instr{Op: isa.HALT},
	)
	p.DataWords = 10
	if _, err := Run(p, Options{}); err == nil || err.Error() != "iss: pc=1: stack pointer 9 below the static data's end 10" {
		t.Errorf("error %v, want the stack pointer at pc 1", err)
	}
}

// cancelAfter cancels its ctx at the n-th instruction fetch and counts
// every fetch.
type cancelAfter struct {
	n, fetches int
	cancel     context.CancelFunc
}

func (c *cancelAfter) FetchInstr(uint32) int {
	if c.fetches++; c.fetches == c.n {
		c.cancel()
	}
	return 0
}
func (*cancelAfter) ReadData(int32) int  { return 0 }
func (*cancelAfter) WriteData(int32) int { return 0 }

// TestRunCtxCancel: a cancelled run stops at its next ctx checkpoint
// with ctx's error, also on a program that never halts.
func TestRunCtxCancel(t *testing.T) {
	p := asm(isa.Instr{Op: isa.B, Target: 0})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := &cancelAfter{n: 100, cancel: cancel}
	if _, err := RunCtx(ctx, p, Options{Mem: mem}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want %v", err, context.Canceled)
	}
	if mem.fetches != ctxCheckInstrs {
		t.Errorf("ran %d instructions, want %d (the first checkpoint)", mem.fetches, ctxCheckInstrs)
	}
}
