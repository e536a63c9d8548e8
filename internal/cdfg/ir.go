// Package cdfg builds and represents the internal graph form the paper's
// step 1 derives from the behavioral description ("Build a graph
// G = {V, E}"): a three-address intermediate representation organized into
// basic blocks with an explicit control-flow graph, plus the *region tree*
// that step 2's cluster decomposition works on ("a cluster in our
// definition is a set of operations which represents code segments like
// nested loops, if-then-else constructs, functions etc.").
//
// The IR is deliberately not SSA: operations read and write named slots
// (locals, temporaries, globals), which keeps the interpreter, the code
// generator and the dataflow analysis straightforward while still exposing
// all data dependencies the list scheduler needs.
package cdfg

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"lppart/internal/behav"
	"lppart/internal/tech"
)

// Opcode enumerates IR operations.
type Opcode int

// IR opcodes.
const (
	Nop     Opcode = iota
	ConstOp        // Dst = Imm
	Copy           // Dst = A
	Add            // Dst = A + B
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	LAnd  // strict (non-short-circuit) logical and
	LOr   // strict logical or
	Neg   // Dst = -A
	Not   // Dst = ^A
	LNot  // Dst = !A
	Load  // Dst = Arr[A]
	Store // Arr[A] = B
	Call  // Dst = Callee(Args...) (Dst may be invalid)
	Ret   // return A (A may be missing)
	Br    // goto Target
	CBr   // if A != 0 goto Then else goto Else
	NumOpcodes
)

var opcodeNames = [NumOpcodes]string{
	Nop: "nop", ConstOp: "const", Copy: "copy",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	LAnd: "land", LOr: "lor",
	Neg: "neg", Not: "not", LNot: "lnot",
	Load: "load", Store: "store",
	Call: "call", Ret: "ret", Br: "br", CBr: "cbr",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if o < 0 || o >= NumOpcodes {
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
	return opcodeNames[o]
}

// IsBinary reports whether the opcode takes two value operands A and B.
func (o Opcode) IsBinary() bool { return o >= Add && o <= LOr }

// IsUnary reports whether the opcode takes exactly operand A as a value.
func (o Opcode) IsUnary() bool { return o == Copy || o == Neg || o == Not || o == LNot }

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool { return o == Ret || o == Br || o == CBr }

// Class maps the opcode onto the technology library's operation classes
// for scheduling and utilization accounting. Control opcodes (branches,
// calls, returns) and Nop/ConstOp map to no datapath class and return
// ok == false.
func (o Opcode) Class() (c tech.OpClass, ok bool) {
	switch o {
	case Add, Sub, Neg:
		return tech.OpAddSub, true
	case And, Or, Xor, Not, LAnd, LOr, LNot:
		return tech.OpLogic, true
	case Shl, Shr:
		return tech.OpShift, true
	case Mul:
		return tech.OpMul, true
	case Div, Rem:
		return tech.OpDivRem, true
	case Eq, Ne, Lt, Le, Gt, Ge:
		return tech.OpCompare, true
	case Copy:
		return tech.OpMove, true
	case Load, Store:
		return tech.OpMemory, true
	default:
		return 0, false
	}
}

// BinOpcode translates a front-end binary operator to the IR opcode.
func BinOpcode(op behav.BinOp) Opcode {
	switch op {
	case behav.OpAdd:
		return Add
	case behav.OpSub:
		return Sub
	case behav.OpMul:
		return Mul
	case behav.OpDiv:
		return Div
	case behav.OpRem:
		return Rem
	case behav.OpAnd:
		return And
	case behav.OpOr:
		return Or
	case behav.OpXor:
		return Xor
	case behav.OpShl:
		return Shl
	case behav.OpShr:
		return Shr
	case behav.OpEq:
		return Eq
	case behav.OpNeq:
		return Ne
	case behav.OpLt:
		return Lt
	case behav.OpLeq:
		return Le
	case behav.OpGt:
		return Gt
	case behav.OpGeq:
		return Ge
	case behav.OpLAnd:
		return LAnd
	case behav.OpLOr:
		return LOr
	default:
		panic(fmt.Sprintf("cdfg: unknown binary operator %d", int(op)))
	}
}

// BehavBinOp translates an IR binary opcode back to the front-end operator
// (used to share behav.EvalBinOp's semantics in the interpreter and ISS).
func BehavBinOp(o Opcode) behav.BinOp {
	switch o {
	case Add:
		return behav.OpAdd
	case Sub:
		return behav.OpSub
	case Mul:
		return behav.OpMul
	case Div:
		return behav.OpDiv
	case Rem:
		return behav.OpRem
	case And:
		return behav.OpAnd
	case Or:
		return behav.OpOr
	case Xor:
		return behav.OpXor
	case Shl:
		return behav.OpShl
	case Shr:
		return behav.OpShr
	case Eq:
		return behav.OpEq
	case Ne:
		return behav.OpNeq
	case Lt:
		return behav.OpLt
	case Le:
		return behav.OpLeq
	case Gt:
		return behav.OpGt
	case Ge:
		return behav.OpGeq
	case LAnd:
		return behav.OpLAnd
	case LOr:
		return behav.OpLOr
	default:
		panic(fmt.Sprintf("cdfg: opcode %v is not binary", o)) //lint:alloc panic path
	}
}

// VarRef names a scalar slot: a global (Global == true, index into
// Program.Globals) or a function local/temporary (index into
// Function.Locals). The zero VarRef is NOT valid; use NoVar.
type VarRef struct {
	Global bool
	ID     int
}

// NoVar is the absent-variable sentinel (e.g. the Dst of a Store).
var NoVar = VarRef{ID: -1}

// Valid reports whether the reference names a slot.
func (v VarRef) Valid() bool { return v.ID >= 0 }

// ArrRef names an array: a global array or a function-local array.
type ArrRef struct {
	Global bool
	ID     int
}

// NoArr is the absent-array sentinel.
var NoArr = ArrRef{ID: -1}

// Valid reports whether the reference names an array.
func (a ArrRef) Valid() bool { return a.ID >= 0 }

// Operand is a value operand: a constant or a scalar slot reference.
type Operand struct {
	IsConst bool
	K       int32
	Ref     VarRef
}

// ConstOperand returns a constant operand.
func ConstOperand(k int32) Operand { return Operand{IsConst: true, K: k} }

// VarOperand returns a slot-reference operand.
func VarOperand(r VarRef) Operand { return Operand{Ref: r} }

// NoOperand is the missing-operand sentinel (e.g. B of a unary op).
var NoOperand = Operand{Ref: NoVar}

// Valid reports whether the operand is present.
func (o Operand) Valid() bool { return o.IsConst || o.Ref.Valid() }

// Op is one IR operation.
type Op struct {
	ID     int // unique within the function
	Code   Opcode
	Dst    VarRef  // result slot; NoVar if none
	A, B   Operand // value operands; NoOperand if unused
	Arr    ArrRef  // array for Load/Store; NoArr otherwise
	Imm    int32   // immediate for ConstOp
	Callee string  // for Call
	Args   []Operand
	Target int // successor block for Br
	Then   int // taken successor for CBr
	Else   int // fall-through successor for CBr
	Pos    behav.Pos
}

// Uses returns the scalar slots the operation reads.
func (op *Op) Uses() []VarRef {
	return op.AppendUses(nil)
}

// AppendUses appends the scalar slots the operation reads to dst and
// returns the extended slice — the zero-alloc form of Uses for callers
// that hold a reusable buffer (the scheduler's DFG builder runs it on
// every op of every candidate block).
func (op *Op) AppendUses(dst []VarRef) []VarRef {
	if op.A.Valid() && !op.A.IsConst {
		dst = append(dst, op.A.Ref)
	}
	if op.B.Valid() && !op.B.IsConst {
		dst = append(dst, op.B.Ref)
	}
	for _, a := range op.Args {
		if a.Valid() && !a.IsConst {
			dst = append(dst, a.Ref)
		}
	}
	return dst
}

// Def returns the scalar slot the operation writes, or NoVar.
func (op *Op) Def() VarRef { return op.Dst }

// Var is a scalar or array variable (global or local).
type Var struct {
	Name string
	Len  int32 // 0 for scalars
	Temp bool  // compiler-introduced temporary
}

// IsArray reports whether the variable is an array.
func (v *Var) IsArray() bool { return v.Len > 0 }

// Block is a basic block: a straight-line op sequence whose last op is a
// terminator.
type Block struct {
	ID int
	// Ops is the block's slice of its function's one op arena, which
	// Build allocates at exact size: the blocks of a function share one
	// backing array, and cap(Ops) == len(Ops), so an append to a block
	// copies its ops out instead of overwriting the next block's.
	Ops []Op
}

// Terminator returns the block's final operation.
func (b *Block) Terminator() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	t := &b.Ops[len(b.Ops)-1]
	if !t.Code.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the IDs of the block's successor blocks.
func (b *Block) Succs() []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Code {
	case Br:
		return []int{t.Target}
	case CBr:
		return []int{t.Then, t.Else}
	default: // Ret
		return nil
	}
}

// Function is one behavioral function lowered to IR.
type Function struct {
	Name   string
	Params []int // local IDs of the parameters, in order
	Locals []Var
	Blocks []*Block
	Entry  int     // entry block ID
	Root   *Region // region tree root (the function-body cluster)
}

// Block returns the block with the given ID.
func (f *Function) Block(id int) *Block {
	if id < 0 || id >= len(f.Blocks) {
		panic(fmt.Sprintf("cdfg: function %s has no block %d", f.Name, id)) //lint:alloc panic path
	}
	return f.Blocks[id]
}

// NumOps returns the total operation count of the function.
func (f *Function) NumOps() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

// Program is a whole application lowered to IR.
type Program struct {
	Name    string
	Globals []Var
	Funcs   []*Function
	funcIdx map[string]int
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	if i, ok := p.funcIdx[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// VarName resolves a slot reference to its source-level name, relative to
// function f (which may be nil for globals-only lookups).
func (p *Program) VarName(f *Function, r VarRef) string {
	if !r.Valid() {
		return "<none>"
	}
	if r.Global {
		return p.Globals[r.ID].Name
	}
	return f.Locals[r.ID].Name
}

// ArrName resolves an array reference to its source-level name.
func (p *Program) ArrName(f *Function, a ArrRef) string {
	if !a.Valid() {
		return "<none>"
	}
	if a.Global {
		return p.Globals[a.ID].Name
	}
	return f.Locals[a.ID].Name
}

// NumOps returns the total operation count of the program.
func (p *Program) NumOps() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumOps()
	}
	return n
}

// Dump renders the program as readable text for debugging and golden
// tests.
func (p *Program) Dump() string {
	var sb strings.Builder
	_ = p.WriteDump(&sb) //lint:err a strings.Builder never fails
	return sb.String()
}

// dumpChunk is the size WriteDump buffers the text to between writes.
const dumpChunk = 4096

// WriteDump writes Dump's text to w without building it whole: the text
// goes out in chunks of about dumpChunk bytes through one reused buffer,
// so hashing a program's dump costs one buffer, not a string of the
// program's size.
func (p *Program) WriteDump(w io.Writer) error {
	b := make([]byte, 0, 2*dumpChunk)
	var err error
	flush := func(force bool) {
		if err == nil && (force || len(b) >= dumpChunk) {
			_, err = w.Write(b)
			b = b[:0]
		}
	}
	b = append(append(append(b, "program "...), p.Name...), '\n')
	for _, g := range p.Globals {
		b = append(append(b, "  global "...), g.Name...)
		if g.IsArray() {
			b = append(strconv.AppendInt(append(b, '['), int64(g.Len), 10), ']')
		}
		b = append(b, '\n')
	}
	for _, f := range p.Funcs {
		b = append(append(append(b, "func "...), f.Name...), '(')
		for i, pid := range f.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, f.Locals[pid].Name...)
		}
		b = append(b, ")\n"...)
		for _, bl := range f.Blocks {
			b = append(strconv.AppendInt(append(b, "  b"...), int64(bl.ID), 10), ":\n"...)
			for i := range bl.Ops {
				b = append(p.appendOp(append(b, "    "...), f, &bl.Ops[i]), '\n')
				flush(false)
			}
		}
	}
	flush(true)
	return err
}

func (p *Program) appendOperand(b []byte, f *Function, o Operand) []byte {
	if !o.Valid() {
		return append(b, '_')
	}
	if o.IsConst {
		return strconv.AppendInt(b, int64(o.K), 10)
	}
	return append(b, p.VarName(f, o.Ref)...)
}

// appendBlock appends a block reference "b<id>".
func appendBlock(b []byte, id int) []byte {
	return strconv.AppendInt(append(b, 'b'), int64(id), 10)
}

func (p *Program) appendOp(b []byte, f *Function, op *Op) []byte {
	switch {
	case op.Code == ConstOp:
		b = append(append(b, p.VarName(f, op.Dst)...), " = const "...)
		return strconv.AppendInt(b, int64(op.Imm), 10)
	case op.Code.IsBinary():
		b = append(append(append(append(b, p.VarName(f, op.Dst)...), " = "...), op.Code.String()...), ' ')
		b = append(p.appendOperand(b, f, op.A), ", "...)
		return p.appendOperand(b, f, op.B)
	case op.Code.IsUnary():
		b = append(append(append(append(b, p.VarName(f, op.Dst)...), " = "...), op.Code.String()...), ' ')
		return p.appendOperand(b, f, op.A)
	case op.Code == Load:
		b = append(append(append(append(b, p.VarName(f, op.Dst)...), " = load "...), p.ArrName(f, op.Arr)...), '[')
		return append(p.appendOperand(b, f, op.A), ']')
	case op.Code == Store:
		b = append(append(append(b, "store "...), p.ArrName(f, op.Arr)...), '[')
		b = append(p.appendOperand(b, f, op.A), "] = "...)
		return p.appendOperand(b, f, op.B)
	case op.Code == Call:
		if op.Dst.Valid() {
			b = append(append(b, p.VarName(f, op.Dst)...), " = "...)
		}
		b = append(append(append(b, "call "...), op.Callee...), '(')
		for i, a := range op.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = p.appendOperand(b, f, a)
		}
		return append(b, ')')
	case op.Code == Ret:
		if op.A.Valid() {
			return p.appendOperand(append(b, "ret "...), f, op.A)
		}
		return append(b, "ret"...)
	case op.Code == Br:
		return appendBlock(append(b, "br "...), op.Target)
	case op.Code == CBr:
		b = append(p.appendOperand(append(b, "cbr "...), f, op.A), ", "...)
		return appendBlock(append(appendBlock(b, op.Then), ", "...), op.Else)
	default:
		return append(b, op.Code.String()...)
	}
}
