package codegen

import (
	"lppart/internal/cdfg"
	"lppart/internal/isa"
)

// segmentOps returns the IR steps a segment of a block charges: its ops
// up to and including the first Call, or all of them. A block's first
// segment is charged at its entry (isa.Program.BlockOps) and each later
// one when the call before it returns (the CALL's Imm), so the step count
// at any point of a run is the interpreter's, calls included.
func segmentOps(ops []cdfg.Op) int32 {
	for i := range ops {
		if ops[i].Code == cdfg.Call {
			return int32(i + 1)
		}
	}
	return int32(len(ops))
}

// Instruction and op kinds the locator counts: each Load or Store op
// compiles to exactly one array LD or ST (Target != 0), each Div or Rem
// to one DIV or REM, and each Call to one CALL, in op order within the
// block's instructions.
const (
	kindOther = iota
	kindArray
	kindDiv
	kindCall
)

func instrKind(ins *isa.Instr) int {
	switch ins.Op {
	case isa.LD, isa.ST:
		if ins.Target != 0 {
			return kindArray
		}
	case isa.DIV, isa.REM:
		return kindDiv
	case isa.CALL:
		return kindCall
	}
	return kindOther
}

func opKind(code cdfg.Opcode) int {
	switch code {
	case cdfg.Load, cdfg.Store:
		return kindArray
	case cdfg.Div, cdfg.Rem:
		return kindDiv
	case cdfg.Call:
		return kindCall
	}
	return kindOther
}

// OpAt returns the IR op that the array LD or ST, DIV or REM, or CALL
// at pc was compiled from, with its function, its block and its index in
// the block; p must be ir's compiled program. It walks back to the
// block's first instruction, counting the instructions of pc's kind on
// the way, and picks the op of that kind with the same count. It is
// meant for fault reports and allocates nothing.
func OpAt(ir *cdfg.Program, p *isa.Program, pc int) (*cdfg.Function, *cdfg.Block, int) {
	kind := instrKind(&p.Code[pc])
	k, at := 0, pc
	for p.Code[at].Block == 0 {
		at--
		if instrKind(&p.Code[at]) == kind {
			k++
		}
	}
	f, b := blockAt(ir, int(p.Code[at].Block-1))
	for i := range b.Ops {
		if opKind(b.Ops[i].Code) != kind {
			continue
		}
		if k == 0 {
			return f, b, i
		}
		k--
	}
	panic("codegen: no IR op for the instruction at a fault")
}

// SegmentOp returns the op n ops into the segment that starts at pc:
// a block's first instruction, or the instruction after a CALL, where
// the block resumes once the call returns (see segmentOps).
func SegmentOp(ir *cdfg.Program, p *isa.Program, pc, n int) (*cdfg.Function, *cdfg.Block, int) {
	if b := p.Code[pc].Block; b != 0 {
		f, blk := blockAt(ir, int(b-1))
		return f, blk, n
	}
	f, b, call := OpAt(ir, p, pc-1)
	return f, b, call + 1 + n
}

// blockAt returns the block at index idx of program block order.
func blockAt(ir *cdfg.Program, idx int) (*cdfg.Function, *cdfg.Block) {
	for _, f := range ir.Funcs {
		if idx < len(f.Blocks) {
			return f, f.Block(idx)
		}
		idx -= len(f.Blocks)
	}
	panic("codegen: block index out of range")
}
