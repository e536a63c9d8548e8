package isa

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestOpcodeStrings(t *testing.T) {
	cases := map[Opcode]string{
		NOP: "nop", HALT: "halt", LI: "li", ADD: "add", MUL: "mul",
		CMPLE: "cmple", LD: "ld", ST: "st", BEQZ: "beqz", CALL: "call",
		JR: "jr", ASIC: "asic",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
	if got := Opcode(99).String(); got != "Opcode(99)" {
		t.Errorf("invalid opcode String() = %q", got)
	}
}

func TestOpcodeClassPredicates(t *testing.T) {
	for _, op := range []Opcode{B, BEQZ, BNEZ, CALL, JR} {
		if !op.IsBranch() {
			t.Errorf("%v must be a branch", op)
		}
	}
	for _, op := range []Opcode{ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLL, SRA, CMPEQ, CMPGE} {
		if !op.IsBinaryALU() {
			t.Errorf("%v must be binary ALU", op)
		}
	}
	for _, op := range []Opcode{NOP, HALT, LI, MOV, LD, ST, B, ASIC, NEG, NOT} {
		if op.IsBinaryALU() {
			t.Errorf("%v must not be binary ALU", op)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: LI, Rd: 5, Imm: -7}, "li    r5, -7"},
		{Instr{Op: MOV, Rd: 1, Rs1: 9}, "mov   r1, r9"},
		{Instr{Op: ADD, Rd: 3, Rs1: 4, Rs2: 5}, "add   r3, r4, r5"},
		{Instr{Op: ADD, Rd: 3, Rs1: 4, Imm: 12, UseImm: true}, "add   r3, r4, 12"},
		{Instr{Op: LD, Rd: 8, Rs1: 29, Imm: 4}, "ld    r8, 4(r29)"},
		{Instr{Op: ST, Rs1: 0, Rs2: 8, Imm: 100}, "st    r8, 100(r0)"},
		{Instr{Op: B, Target: 42}, "b     @42"},
		{Instr{Op: BNEZ, Rs1: 7, Target: 3}, "bnez  r7, @3"},
		{Instr{Op: JR, Rs1: 31}, "jr    r31"},
		{Instr{Op: ASIC, Imm: 2}, "asic  #2"},
		{Instr{Op: NEG, Rd: 2, Rs1: 3}, "neg   r2, r3"},
		{Instr{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestByteAddr(t *testing.T) {
	if ByteAddr(0) != 0 || ByteAddr(10) != 40 {
		t.Error("instructions are 4 bytes each")
	}
}

func TestRegisterConventions(t *testing.T) {
	// The allocatable and pinned ranges must not collide with the
	// architectural registers.
	archRegs := []int{Zero, RV, SP, RA, AT}
	for _, r := range archRegs {
		if r >= FirstTemp && r <= LastTemp {
			t.Errorf("architectural register r%d inside temp range", r)
		}
		if r >= FirstPinned && r <= LastPinned {
			t.Errorf("architectural register r%d inside pinned range", r)
		}
	}
	if LastTemp >= FirstPinned {
		t.Error("temp and pinned ranges overlap")
	}
	if A0+MaxArgs-1 >= FirstTemp {
		t.Error("argument registers overlap the temp range")
	}
	if MaxPinned != LastPinned-FirstPinned+1 {
		t.Error("MaxPinned inconsistent")
	}
}

func TestListing(t *testing.T) {
	p := &Program{
		Name:  "t",
		Code:  []Instr{{Op: CALL, Target: 2}, {Op: HALT}, {Op: LI, Rd: RV, Imm: 1, Comment: "answer"}, {Op: JR, Rs1: RA}},
		Funcs: map[string]int{"main": 2},
	}
	l := p.Listing()
	for _, want := range []string{"main:", "call", "; answer", "jr"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

// TestInstrSize pins the instruction at 72 bytes on 64-bit targets: the
// compiled programs are a large share of a measurement's allocation, so
// the block tag shares Region's word and the array extents live in a
// per-program table (Program.Arrays).
func TestInstrSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got != 72 {
		t.Errorf("isa.Instr is %d bytes, want 72", got)
	}
}
