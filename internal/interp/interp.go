// Package interp executes CDFG programs directly, one IR operation at a
// time. It is the golden reference of the toolchain: the code generator
// and ISS pipeline must reproduce its observable results, and the
// block frequencies ("#ex_times", paper Fig. 4) the ISS counts for the
// Fig. 5 flow must equal the ones it collects with
// Options.CollectProfile (differential testing).
//
// It is also the tests' fault oracle. It traps division by zero,
// out-of-range array indices and runaway programs at the IR operation
// that causes them and names its source position. The ISS traps the
// same faults in the compiled program and internal/system names them in
// the same words (its differential fault test checks this); no
// production binary links this package.
package interp

import (
	"fmt"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
)

// Options configures a run.
type Options struct {
	// MaxSteps aborts runaway programs; 0 means the default (200M ops).
	MaxSteps int64
	// MaxDepth bounds the call stack; 0 means the default (1024 frames).
	MaxDepth int
	// CollectProfile enables block-frequency recording.
	CollectProfile bool
}

// Result is the outcome of a run.
type Result struct {
	Ret     int32 // main's return value (0 if none)
	Steps   int64 // executed IR operations
	Globals map[string][]int32
	Prof    *cdfg.Profile // nil unless Options.CollectProfile
}

type machine struct {
	prog    *cdfg.Program
	opts    Options
	globals [][]int32 // index parallel to prog.Globals; scalars are len-1
	steps   int64
	// freq holds the block counts, parallel to prog.Funcs and indexed
	// by block ID; nil unless profiling.
	freq  [][]int64
	fnIdx map[*cdfg.Function]int
	depth int
}

// Run executes the program's main function.
func Run(p *cdfg.Program, opts Options) (*Result, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 1024
	}
	m := &machine{prog: p, opts: opts}
	m.globals = make([][]int32, len(p.Globals))
	for i, g := range p.Globals {
		n := int32(1)
		if g.IsArray() {
			n = g.Len
		}
		m.globals[i] = make([]int32, n)
	}
	if opts.CollectProfile {
		m.freq = make([][]int64, len(p.Funcs))
		m.fnIdx = make(map[*cdfg.Function]int, len(p.Funcs))
		for i, f := range p.Funcs {
			m.freq[i] = make([]int64, len(f.Blocks))
			m.fnIdx[f] = i
		}
	}
	main := p.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: program %s has no main", p.Name)
	}
	ret, err := m.call(main, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Ret: ret, Steps: m.steps,
		Globals: make(map[string][]int32, len(p.Globals))}
	if opts.CollectProfile {
		res.Prof = &cdfg.Profile{BlockFreq: make(map[string][]int64, len(p.Funcs))}
		for i, f := range p.Funcs {
			res.Prof.BlockFreq[f.Name] = m.freq[i]
		}
	}
	for i, g := range p.Globals {
		vals := make([]int32, len(m.globals[i]))
		copy(vals, m.globals[i])
		res.Globals[g.Name] = vals
	}
	return res, nil
}

// frame is one function activation.
type frame struct {
	fn     *cdfg.Function
	locals [][]int32
	freq   []int64 // the function's block counts; nil unless profiling
}

func (m *machine) call(fn *cdfg.Function, args []int32) (int32, error) {
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > m.opts.MaxDepth {
		return 0, &cdfg.RuntimeError{Msg: fmt.Sprintf("call depth exceeds %d", m.opts.MaxDepth)}
	}
	fr := &frame{fn: fn, locals: make([][]int32, len(fn.Locals))}
	if m.freq != nil {
		fr.freq = m.freq[m.fnIdx[fn]]
	}
	for i, l := range fn.Locals {
		n := int32(1)
		if l.IsArray() {
			n = l.Len
		}
		fr.locals[i] = make([]int32, n)
	}
	for i, pid := range fn.Params {
		fr.locals[pid][0] = args[i]
	}
	blockID := fn.Entry
	for {
		if fr.freq != nil {
			fr.freq[blockID]++
		}
		b := fn.Block(blockID)
		for i := range b.Ops {
			op := &b.Ops[i]
			m.steps++
			if m.steps > m.opts.MaxSteps {
				return 0, &cdfg.RuntimeError{Pos: op.Pos, Msg: fmt.Sprintf("step limit %d exceeded", m.opts.MaxSteps)}
			}
			next, ret, done, err := m.exec(fr, op)
			if err != nil {
				return 0, err
			}
			if done {
				return ret, nil
			}
			if next >= 0 {
				blockID = next
				break
			}
		}
	}
}

func (m *machine) slot(fr *frame, r cdfg.VarRef) *int32 {
	if r.Global {
		return &m.globals[r.ID][0]
	}
	return &fr.locals[r.ID][0]
}

func (m *machine) array(fr *frame, a cdfg.ArrRef) []int32 {
	if a.Global {
		return m.globals[a.ID]
	}
	return fr.locals[a.ID]
}

func (m *machine) operand(fr *frame, o cdfg.Operand) int32 {
	if o.IsConst {
		return o.K
	}
	return *m.slot(fr, o.Ref)
}

// exec runs one operation. It returns the next block ID (or -1 to
// continue), and done/ret when the function returns.
func (m *machine) exec(fr *frame, op *cdfg.Op) (next int, ret int32, done bool, err error) {
	next = -1
	switch {
	case op.Code == cdfg.Nop:
	case op.Code == cdfg.ConstOp:
		*m.slot(fr, op.Dst) = op.Imm
	case op.Code == cdfg.Copy:
		*m.slot(fr, op.Dst) = m.operand(fr, op.A)
	case op.Code.IsBinary():
		a := m.operand(fr, op.A)
		b := m.operand(fr, op.B)
		v, evalErr := behav.EvalBinOp(cdfg.BehavBinOp(op.Code), a, b)
		if evalErr != nil {
			return 0, 0, false, &cdfg.RuntimeError{Pos: op.Pos, Msg: evalErr.Error()}
		}
		*m.slot(fr, op.Dst) = v
	case op.Code == cdfg.Neg:
		*m.slot(fr, op.Dst) = -m.operand(fr, op.A)
	case op.Code == cdfg.Not:
		*m.slot(fr, op.Dst) = ^m.operand(fr, op.A)
	case op.Code == cdfg.LNot:
		if m.operand(fr, op.A) == 0 {
			*m.slot(fr, op.Dst) = 1
		} else {
			*m.slot(fr, op.Dst) = 0
		}
	case op.Code == cdfg.Load:
		idx := m.operand(fr, op.A)
		arr := m.array(fr, op.Arr)
		if idx < 0 || int(idx) >= len(arr) {
			return 0, 0, false, &cdfg.RuntimeError{Pos: op.Pos,
				Msg: fmt.Sprintf("index %d out of range [0,%d) of %s", idx, len(arr), m.prog.ArrName(fr.fn, op.Arr))}
		}
		*m.slot(fr, op.Dst) = arr[idx]
	case op.Code == cdfg.Store:
		idx := m.operand(fr, op.A)
		val := m.operand(fr, op.B)
		arr := m.array(fr, op.Arr)
		if idx < 0 || int(idx) >= len(arr) {
			return 0, 0, false, &cdfg.RuntimeError{Pos: op.Pos,
				Msg: fmt.Sprintf("index %d out of range [0,%d) of %s", idx, len(arr), m.prog.ArrName(fr.fn, op.Arr))}
		}
		arr[idx] = val
	case op.Code == cdfg.Call:
		callee := m.prog.Func(op.Callee)
		if callee == nil {
			return 0, 0, false, &cdfg.RuntimeError{Pos: op.Pos, Msg: fmt.Sprintf("unknown function %q", op.Callee)}
		}
		args := make([]int32, len(op.Args))
		for i, a := range op.Args {
			args[i] = m.operand(fr, a)
		}
		v, callErr := m.call(callee, args)
		if callErr != nil {
			return 0, 0, false, callErr
		}
		if op.Dst.Valid() {
			*m.slot(fr, op.Dst) = v
		}
	case op.Code == cdfg.Ret:
		if op.A.Valid() {
			return -1, m.operand(fr, op.A), true, nil
		}
		return -1, 0, true, nil
	case op.Code == cdfg.Br:
		next = op.Target
	case op.Code == cdfg.CBr:
		if m.operand(fr, op.A) != 0 {
			next = op.Then
		} else {
			next = op.Else
		}
	default:
		return 0, 0, false, &cdfg.RuntimeError{Pos: op.Pos, Msg: fmt.Sprintf("unimplemented opcode %v", op.Code)}
	}
	return next, 0, false, nil
}
