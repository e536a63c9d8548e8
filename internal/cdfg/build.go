package cdfg

import (
	"fmt"

	"lppart/internal/behav"
	"lppart/internal/scratch"
)

// Build lowers a checked behavioral program to IR and constructs the
// region tree. Semantics notes:
//
//   - All variables (globals, locals, arrays) start zero-initialized.
//   - && and || are evaluated strictly (both operands), matching
//     behav.EvalBinOp; the front end has no side effects in expressions
//     other than calls, which keeps strict evaluation observably
//     equivalent except for fault timing.
//   - Loop and if regions contain their condition evaluation; a for-loop's
//     init assignment stays in the enclosing region (it runs once).
//
// Each function's ops are emitted into one recycled buffer and copied
// once, at exact size, into the function's op arena (see Block.Ops).
func Build(src *behav.Program) (*Program, error) {
	sc := buildScratches.Get()
	defer sc.release()
	return build(src, sc)
}

func build(src *behav.Program, sc *buildScratch) (*Program, error) {
	p := &Program{Name: src.Name, funcIdx: make(map[string]int)}
	globalIdx := make(map[string]int)
	for _, g := range src.Globals {
		globalIdx[g.Name] = len(p.Globals)
		p.Globals = append(p.Globals, Var{Name: g.Name, Len: g.Len})
	}
	nextRegion := 0
	for _, fd := range src.Funcs {
		b := &builder{
			prog:      p,
			src:       src,
			globalIdx: globalIdx,
			localIdx:  make(map[string]int),
			fn:        &Function{Name: fd.Name},
			regionID:  &nextRegion,
			sc:        sc,
		}
		if err := b.buildFunc(fd); err != nil {
			return nil, err
		}
		p.funcIdx[fd.Name] = len(p.Funcs)
		p.Funcs = append(p.Funcs, b.fn)
	}
	return p, nil
}

// MustBuild is Build that panics on error; for compiled-in sources.
func MustBuild(src *behav.Program) *Program {
	p, err := Build(src)
	if err != nil {
		panic(fmt.Sprintf("cdfg.MustBuild(%s): %v", src.Name, err))
	}
	return p
}

type builder struct {
	prog      *Program
	src       *behav.Program
	globalIdx map[string]int
	localIdx  map[string]int
	fn        *Function
	cur       *Block
	regions   []*Region // region stack
	regionID  *int
	nextTemp  int
	sc        *buildScratch
}

// buildScratch is the builder's growth buffer: the current function's
// ops in emission order (an op's index is its ID) and, per block ID,
// the stretch of ops emitted while the block was cur.
type buildScratch struct {
	ops     []Op
	stretch []stretch
}

// stretch is a block's ops[start:end]; start is -1 until the block is
// cur, end until it stops being cur.
type stretch struct{ start, end int }

var buildScratches = scratch.Pool[buildScratch]{New: func() *buildScratch { return new(buildScratch) }}

// reset empties the scratch for the next function. The ops are cleared,
// so recycled memory keeps no Args or Callee alive.
func (sc *buildScratch) reset() {
	clear(sc.ops)
	sc.ops = sc.ops[:0]
	sc.stretch = sc.stretch[:0]
}

// release hands the scratch back, also after a failed build.
func (sc *buildScratch) release() {
	sc.reset()
	buildScratches.Put(sc)
}

func (b *builder) buildFunc(fd *behav.FuncDecl) error {
	for _, name := range fd.Params {
		id := b.addLocal(Var{Name: name})
		b.fn.Params = append(b.fn.Params, id)
	}
	root := b.pushRegion(RegionFunc, fd.Name, fd.Pos)
	b.fn.Root = root
	entry := b.newBlock()
	b.fn.Entry = entry.ID
	root.Entry = entry.ID
	b.setCur(entry)
	if err := b.stmt(fd.Body); err != nil {
		return err
	}
	// Implicit return at the end of the body.
	if !b.terminated() {
		b.emit(Op{Code: Ret, A: NoOperand, B: NoOperand, Dst: NoVar, Arr: NoArr, Pos: fd.Pos})
	}
	b.popRegion()
	b.setCur(nil)
	// One exact arena per function; every block's ops are its stretch,
	// capped so that an append to one block cannot write into the next.
	arena := make([]Op, len(b.sc.ops))
	copy(arena, b.sc.ops)
	for id, st := range b.sc.stretch {
		if st.end > st.start {
			b.fn.Blocks[id].Ops = arena[st.start:st.end:st.end]
		}
	}
	b.sc.reset()
	return nil
}

func (b *builder) addLocal(v Var) int {
	id := len(b.fn.Locals)
	b.fn.Locals = append(b.fn.Locals, v)
	if !v.Temp {
		b.localIdx[v.Name] = id
	}
	return id
}

func (b *builder) newTemp() VarRef {
	name := fmt.Sprintf("%%t%d", b.nextTemp)
	b.nextTemp++
	id := b.addLocal(Var{Name: name, Temp: true})
	return VarRef{ID: id}
}

func (b *builder) pushRegion(kind RegionKind, label string, pos behav.Pos) *Region {
	r := &Region{
		ID:    *b.regionID,
		Kind:  kind,
		Func:  b.fn,
		Label: label,
		Pos:   pos,
	}
	*b.regionID++
	if len(b.regions) > 0 {
		parent := b.regions[len(b.regions)-1]
		r.Parent = parent
		parent.Children = append(parent.Children, r)
	}
	b.regions = append(b.regions, r)
	return r
}

func (b *builder) popRegion() { b.regions = b.regions[:len(b.regions)-1] }

// newBlock creates a block and registers it with every region currently on
// the stack (so ancestors transitively contain descendants' blocks).
func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.fn.Blocks)}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	b.sc.stretch = append(b.sc.stretch, stretch{-1, -1})
	for _, r := range b.regions {
		r.Blocks = append(r.Blocks, blk.ID)
	}
	return blk
}

// setCur ends cur's stretch of the op buffer and starts blk's (none when
// blk is nil). Every block is cur for exactly one contiguous stretch: a
// merge or exit block becomes cur only after the blocks before it close.
func (b *builder) setCur(blk *Block) {
	if b.cur != nil {
		b.sc.stretch[b.cur.ID].end = len(b.sc.ops)
	}
	b.cur = blk
	if blk == nil {
		return
	}
	st := &b.sc.stretch[blk.ID]
	if st.start >= 0 {
		panic(fmt.Sprintf("cdfg: %s: block b%d is cur a second time", b.fn.Name, blk.ID))
	}
	st.start = len(b.sc.ops)
}

// terminated reports whether cur's ops so far end in a terminator.
func (b *builder) terminated() bool {
	n := len(b.sc.ops)
	return n > b.sc.stretch[b.cur.ID].start && b.sc.ops[n-1].Code.IsTerminator()
}

// emit appends op to cur and returns its index in the op buffer, which
// stays valid across later emits (a pointer would not).
func (b *builder) emit(op Op) int {
	op.ID = len(b.sc.ops)
	b.sc.ops = append(b.sc.ops, op)
	return op.ID
}

func (b *builder) lookupScalar(name string, pos behav.Pos) (VarRef, error) {
	if id, ok := b.localIdx[name]; ok {
		if b.fn.Locals[id].IsArray() {
			return NoVar, fmt.Errorf("%v: %q is an array", pos, name)
		}
		return VarRef{ID: id}, nil
	}
	if id, ok := b.globalIdx[name]; ok {
		if b.prog.Globals[id].IsArray() {
			return NoVar, fmt.Errorf("%v: %q is an array", pos, name)
		}
		return VarRef{Global: true, ID: id}, nil
	}
	return NoVar, fmt.Errorf("%v: undeclared variable %q", pos, name)
}

func (b *builder) lookupArray(name string, pos behav.Pos) (ArrRef, error) {
	if id, ok := b.localIdx[name]; ok {
		if !b.fn.Locals[id].IsArray() {
			return NoArr, fmt.Errorf("%v: %q is not an array", pos, name)
		}
		return ArrRef{ID: id}, nil
	}
	if id, ok := b.globalIdx[name]; ok {
		if !b.prog.Globals[id].IsArray() {
			return NoArr, fmt.Errorf("%v: %q is not an array", pos, name)
		}
		return ArrRef{Global: true, ID: id}, nil
	}
	return NoArr, fmt.Errorf("%v: undeclared array %q", pos, name)
}

func (b *builder) stmt(s behav.Stmt) error {
	switch s := s.(type) {
	case *behav.BlockStmt:
		for _, st := range s.Stmts {
			if err := b.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *behav.LocalStmt:
		d := s.Decl
		b.addLocal(Var{Name: d.Name, Len: d.Len})
		if d.Init != nil {
			ref, err := b.lookupScalar(d.Name, d.Pos)
			if err != nil {
				return err
			}
			return b.exprTo(ref, d.Init)
		}
		return nil
	case *behav.AssignStmt:
		return b.assign(s)
	case *behav.IfStmt:
		return b.ifStmt(s)
	case *behav.ForStmt:
		return b.forStmt(s)
	case *behav.WhileStmt:
		return b.whileStmt(s)
	case *behav.ReturnStmt:
		a := NoOperand
		if s.Value != nil {
			op, err := b.expr(s.Value)
			if err != nil {
				return err
			}
			a = op
		}
		b.emit(Op{Code: Ret, A: a, B: NoOperand, Dst: NoVar, Arr: NoArr, Pos: s.Pos})
		// Statements after a return are unreachable; give them a fresh
		// block so the current block stays well-formed.
		b.setCur(b.newBlock())
		return nil
	case *behav.ExprStmt:
		call, ok := s.X.(*behav.CallExpr)
		if !ok {
			// Evaluate and discard (no side effects besides faults).
			_, err := b.expr(s.X)
			return err
		}
		args, err := b.exprList(call.Args)
		if err != nil {
			return err
		}
		b.emit(Op{Code: Call, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr,
			Callee: call.Name, Args: args, Pos: call.Pos})
		return nil
	default:
		return fmt.Errorf("cdfg: unknown statement %T", s)
	}
}

func (b *builder) assign(s *behav.AssignStmt) error {
	if s.Index == nil {
		dst, err := b.lookupScalar(s.Target, s.Pos)
		if err != nil {
			return err
		}
		return b.exprTo(dst, s.Value)
	}
	arr, err := b.lookupArray(s.Target, s.Pos)
	if err != nil {
		return err
	}
	idx, err := b.expr(s.Index)
	if err != nil {
		return err
	}
	val, err := b.expr(s.Value)
	if err != nil {
		return err
	}
	b.emit(Op{Code: Store, Dst: NoVar, A: idx, B: val, Arr: arr, Pos: s.Pos})
	return nil
}

func (b *builder) ifStmt(s *behav.IfStmt) error {
	// Created before pushRegion, so the merge block belongs to the
	// enclosing regions only: it executes after the if-region completes.
	merge := b.newBlock()
	region := b.pushRegion(RegionIf, fmt.Sprintf("%s/if@%v", b.fn.Name, s.Pos), s.Pos)
	condBlk := b.newBlock()
	region.Entry = condBlk.ID
	b.emit(Op{Code: Br, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr, Target: condBlk.ID, Pos: s.Pos})
	b.setCur(condBlk)
	cond, err := b.expr(s.Cond)
	if err != nil {
		return err
	}
	cbr := b.emit(Op{Code: CBr, Dst: NoVar, A: cond, B: NoOperand, Arr: NoArr, Pos: s.Pos})

	thenBlk := b.newBlock()
	b.sc.ops[cbr].Then = thenBlk.ID
	b.setCur(thenBlk)
	if err := b.stmt(s.Then); err != nil {
		return err
	}
	if !b.terminated() {
		b.emit(Op{Code: Br, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr, Target: merge.ID, Pos: s.Pos})
	}

	elseTarget := merge.ID
	if s.Else != nil {
		elseBlk := b.newBlock()
		elseTarget = elseBlk.ID
		b.setCur(elseBlk)
		if err := b.stmt(s.Else); err != nil {
			return err
		}
		if !b.terminated() {
			b.emit(Op{Code: Br, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr, Target: merge.ID, Pos: s.Pos})
		}
	}
	b.sc.ops[cbr].Else = elseTarget
	b.popRegion()
	b.setCur(merge)
	return nil
}

func (b *builder) forStmt(s *behav.ForStmt) error {
	if s.Init != nil {
		if err := b.assign(s.Init); err != nil {
			return err
		}
	}
	return b.loop(fmt.Sprintf("%s/loop@%v", b.fn.Name, s.Pos), s.Pos, s.Cond, s.Body, s.Post)
}

func (b *builder) whileStmt(s *behav.WhileStmt) error {
	return b.loop(fmt.Sprintf("%s/loop@%v", b.fn.Name, s.Pos), s.Pos, s.Cond, s.Body, nil)
}

// loop lowers a counted or conditional loop: header (condition) inside the
// region, body blocks inside, the post assignment appended to the body,
// exit outside.
func (b *builder) loop(label string, pos behav.Pos, cond behav.Expr, body *behav.BlockStmt, post *behav.AssignStmt) error {
	// Created before pushRegion: the exit block belongs to the enclosing
	// regions only.
	exit := b.newBlock()
	region := b.pushRegion(RegionLoop, label, pos)
	header := b.newBlock()
	region.Entry = header.ID
	b.emit(Op{Code: Br, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr, Target: header.ID, Pos: pos})
	b.setCur(header)
	var condOperand Operand
	if cond != nil {
		c, err := b.expr(cond)
		if err != nil {
			return err
		}
		condOperand = c
	} else {
		condOperand = ConstOperand(1)
	}
	// The condition evaluation stays straight-line, in the header.
	cbr := b.emit(Op{Code: CBr, Dst: NoVar, A: condOperand, B: NoOperand, Arr: NoArr, Else: exit.ID, Pos: pos})

	bodyBlk := b.newBlock()
	b.sc.ops[cbr].Then = bodyBlk.ID
	b.setCur(bodyBlk)
	if err := b.stmt(body); err != nil {
		return err
	}
	if post != nil {
		if !b.terminated() {
			if err := b.assign(post); err != nil {
				return err
			}
		}
	}
	if !b.terminated() {
		b.emit(Op{Code: Br, Dst: NoVar, A: NoOperand, B: NoOperand, Arr: NoArr, Target: header.ID, Pos: pos})
	}
	b.popRegion()
	b.setCur(exit)
	return nil
}

// expr lowers an expression and returns the operand holding its value.
func (b *builder) expr(e behav.Expr) (Operand, error) {
	switch e := e.(type) {
	case *behav.IntExpr:
		return ConstOperand(e.Val), nil
	case *behav.VarExpr:
		ref, err := b.lookupScalar(e.Name, e.Pos)
		if err != nil {
			return NoOperand, err
		}
		return VarOperand(ref), nil
	default:
		dst := b.newTemp()
		if err := b.exprTo(dst, e); err != nil {
			return NoOperand, err
		}
		return VarOperand(dst), nil
	}
}

// exprTo lowers an expression so that its result lands in dst, fusing the
// destination into the producing op where possible.
func (b *builder) exprTo(dst VarRef, e behav.Expr) error {
	switch e := e.(type) {
	case *behav.IntExpr:
		b.emit(Op{Code: ConstOp, Dst: dst, A: NoOperand, B: NoOperand, Arr: NoArr, Imm: e.Val, Pos: e.Pos})
		return nil
	case *behav.VarExpr:
		src, err := b.lookupScalar(e.Name, e.Pos)
		if err != nil {
			return err
		}
		b.emit(Op{Code: Copy, Dst: dst, A: VarOperand(src), B: NoOperand, Arr: NoArr, Pos: e.Pos})
		return nil
	case *behav.IndexExpr:
		arr, err := b.lookupArray(e.Name, e.Pos)
		if err != nil {
			return err
		}
		idx, err := b.expr(e.Index)
		if err != nil {
			return err
		}
		b.emit(Op{Code: Load, Dst: dst, A: idx, B: NoOperand, Arr: arr, Pos: e.Pos})
		return nil
	case *behav.CallExpr:
		args, err := b.exprList(e.Args)
		if err != nil {
			return err
		}
		b.emit(Op{Code: Call, Dst: dst, A: NoOperand, B: NoOperand, Arr: NoArr,
			Callee: e.Name, Args: args, Pos: e.Pos})
		return nil
	case *behav.BinExpr:
		l, err := b.expr(e.L)
		if err != nil {
			return err
		}
		r, err := b.expr(e.R)
		if err != nil {
			return err
		}
		b.emit(Op{Code: BinOpcode(e.Op), Dst: dst, A: l, B: r, Arr: NoArr, Pos: e.Pos})
		return nil
	case *behav.UnExpr:
		x, err := b.expr(e.X)
		if err != nil {
			return err
		}
		var code Opcode
		switch e.Op {
		case behav.OpNeg:
			code = Neg
		case behav.OpNot:
			code = Not
		default:
			code = LNot
		}
		b.emit(Op{Code: code, Dst: dst, A: x, B: NoOperand, Arr: NoArr, Pos: e.ExprPos()})
		return nil
	default:
		return fmt.Errorf("cdfg: unknown expression %T", e)
	}
}

func (b *builder) exprList(es []behav.Expr) ([]Operand, error) {
	ops := make([]Operand, len(es))
	for i, e := range es {
		o, err := b.expr(e)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}
