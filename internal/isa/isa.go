// Package isa defines the instruction set of the SPARCLite-class embedded
// RISC µP core the paper's experiments run on ("our energy instruction
// simulation tool for a SPARCLite µP core", §4). It is a synthetic but
// conventional 32-register load/store architecture:
//
//   - r0 is hardwired to zero,
//   - r1 (RV) carries return values,
//   - r2–r7 (A0–A5) carry arguments,
//   - r8–r27 are allocatable temporaries,
//   - r28 (AT) is the assembler/codegen scratch register,
//   - r29 (SP) is the stack pointer,
//   - r31 (RA) receives return addresses.
//
// Instructions are represented structurally (no binary encoding): the ISS
// interprets Instr values directly, and the i-cache model derives byte
// addresses from instruction indices (4 bytes per instruction, as on a
// 32-bit RISC).
//
// The special ASIC instruction is the hardware/software rendezvous of the
// partitioned design (paper Fig. 2a): the µP deposits cluster inputs in
// shared memory, triggers ASIC core k, shuts down while the ASIC runs, and
// resumes when it completes.
package isa

import "fmt"

// Register indices with architectural roles.
const (
	Zero = 0  // hardwired zero
	RV   = 1  // return value
	A0   = 2  // first argument register; arguments use A0..A0+MaxArgs-1
	AT   = 28 // codegen scratch
	SP   = 29 // stack pointer
	RA   = 31 // return address

	NumRegs = 32
	// MaxArgs is the number of register-passed arguments (r2..r7).
	MaxArgs = 6
	// FirstTemp..LastTemp is the block-local allocatable range.
	FirstTemp = 8
	LastTemp  = 17
	// FirstPinned..LastPinned hold the hottest function-local scalars for
	// the whole function body (codegen's register promotion).
	FirstPinned = 18
	LastPinned  = 27
	// MaxPinned is the number of promotable locals per function.
	MaxPinned = LastPinned - FirstPinned + 1
)

// Opcode enumerates the machine operations.
type Opcode int

// Machine opcodes.
const (
	NOP Opcode = iota
	HALT
	LI  // rd = imm
	MOV // rd = rs1
	ADD // rd = rs1 + src2
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLL
	SRA // arithmetic right shift (the language's >>)
	CMPEQ
	CMPNE
	CMPLT
	CMPLE
	CMPGT
	CMPGE
	NEG  // rd = -rs1
	NOT  // rd = ^rs1
	LD   // rd = mem[rs1 + imm]
	ST   // mem[rs1 + imm] = rs2
	B    // pc = target
	BEQZ // if rs1 == 0: pc = target
	BNEZ // if rs1 != 0: pc = target
	CALL // ra = pc+1; pc = target
	JR   // pc = rs1 (return via JR RA)
	ASIC // run ASIC core #imm; µP shut down meanwhile
	NumOpcodes
)

var opcodeNames = [NumOpcodes]string{
	NOP: "nop", HALT: "halt", LI: "li", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SLL: "sll", SRA: "sra",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt", CMPLE: "cmple",
	CMPGT: "cmpgt", CMPGE: "cmpge",
	NEG: "neg", NOT: "not",
	LD: "ld", ST: "st", B: "b", BEQZ: "beqz", BNEZ: "bnez",
	CALL: "call", JR: "jr", ASIC: "asic",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if o < 0 || o >= NumOpcodes {
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
	return opcodeNames[o]
}

// IsBranch reports whether the opcode redirects control flow.
func (o Opcode) IsBranch() bool {
	switch o {
	case B, BEQZ, BNEZ, CALL, JR:
		return true
	}
	return false
}

// IsBinaryALU reports whether the opcode is a two-operand ALU/shift/
// mul/div operation (rd = rs1 op src2).
func (o Opcode) IsBinaryALU() bool { return o >= ADD && o <= CMPGE }

// Instr is one machine instruction. Src2 of a binary operation is either
// register Rs2 (UseImm false) or the immediate Imm (UseImm true). LD/ST
// address is always rs1 + Imm.
type Instr struct {
	Op     Opcode
	Rd     int   // destination register
	Rs1    int   // first source register / address base / branch condition
	Rs2    int   // second source register / store data
	Imm    int32 // immediate: operand, address offset, ASIC core id; CALL: see Program.BlockOps
	UseImm bool  // binary ALU ops: use Imm instead of Rs2
	// Target is the instruction index for B/BEQZ/BNEZ/CALL. For an
	// array LD/ST it is 1 + the index in Program.Arrays of the array the
	// access must stay within; 0 marks a scalar access.
	Target int
	// Region tags the innermost cluster (cdfg region ID) this instruction
	// was generated from, or -1. The ISS aggregates per-region statistics
	// from it (per-cluster µP energy and utilization, Fig. 1 lines 9/12).
	Region int32
	// Block marks the first instruction of an IR basic block with 1 +
	// the block's index in program block order (see Program.BlockOps);
	// it is 0 elsewhere. The ISS counts block entries from it. Region
	// and Block share one word, so Instr stays 72 bytes.
	Block int32
	// Comment carries the source construct for listings.
	Comment string
}

// String renders the instruction in assembly-listing form.
func (i Instr) String() string {
	switch {
	case i.Op == NOP || i.Op == HALT:
		return i.Op.String()
	case i.Op == LI:
		return fmt.Sprintf("%-5s r%d, %d", i.Op, i.Rd, i.Imm)
	case i.Op == MOV:
		return fmt.Sprintf("%-5s r%d, r%d", i.Op, i.Rd, i.Rs1)
	case i.Op == NEG || i.Op == NOT:
		return fmt.Sprintf("%-5s r%d, r%d", i.Op, i.Rd, i.Rs1)
	case i.Op.IsBinaryALU():
		if i.UseImm {
			return fmt.Sprintf("%-5s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
		}
		return fmt.Sprintf("%-5s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case i.Op == LD:
		return fmt.Sprintf("%-5s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op == ST:
		return fmt.Sprintf("%-5s r%d, %d(r%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == B || i.Op == CALL:
		return fmt.Sprintf("%-5s @%d", i.Op, i.Target)
	case i.Op == BEQZ || i.Op == BNEZ:
		return fmt.Sprintf("%-5s r%d, @%d", i.Op, i.Rs1, i.Target)
	case i.Op == JR:
		return fmt.Sprintf("%-5s r%d", i.Op, i.Rs1)
	case i.Op == ASIC:
		return fmt.Sprintf("%-5s #%d", i.Op, i.Imm)
	default:
		return i.Op.String()
	}
}

// Program is an assembled machine program.
type Program struct {
	Name  string
	Code  []Instr
	Entry int            // index of the startup stub
	Funcs map[string]int // function name -> entry index
	// MemWords is the data memory size the program assumes (word
	// addresses 0..MemWords-1; the stack starts at the top).
	MemWords int
	// DataWords is the end of the static data: the stack pointer may not
	// go below it, or the stack would overwrite globals and static frames.
	DataWords int

	// BlockOps[i] is the number of IR operations block i charges against
	// the step limit at its entry, in program block order: the blocks of
	// the first IR function by block ID, then the second function's, and
	// so on. A block charges its ops up to and including its first Call;
	// each CALL charges the next segment through its Imm when it returns.
	// Instr.Block marks where each block starts; blocks replaced by an
	// ASIC rendezvous have no start.
	BlockOps []int32
	// Arrays lists the word extent of every array variable; array
	// LD/ST instructions refer to it through Instr.Target.
	Arrays []Extent
}

// Extent is the word range [Base, Base+Len) an array occupies. When SP
// is set the array lives in a stack frame and Base is relative to the
// stack pointer.
type Extent struct {
	Base, Len int32
	SP        bool
}

// ByteAddr returns the byte address of the instruction at index idx, as
// seen by the instruction cache.
func ByteAddr(idx int) uint32 { return uint32(idx) * 4 }

// Listing renders the whole program for inspection.
func (p *Program) Listing() string {
	out := fmt.Sprintf("; program %s, %d instructions, entry @%d\n", p.Name, len(p.Code), p.Entry)
	rev := make(map[int]string, len(p.Funcs))
	for name, at := range p.Funcs {
		rev[at] = name
	}
	for i, ins := range p.Code {
		if name, ok := rev[i]; ok {
			out += name + ":\n"
		}
		out += fmt.Sprintf("%5d: %s", i, ins)
		if ins.Comment != "" {
			out += "  ; " + ins.Comment
		}
		out += "\n"
	}
	return out
}
