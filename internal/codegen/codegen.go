// Package codegen compiles CDFG programs to the embedded RISC ISA so the
// instruction-set simulator can execute and energy-account them (paper
// §3.5: the software parts are "fed into the Core Energy Estimation
// block" driven by an instruction set simulator).
//
// Design choices, documented for reproducibility:
//
//   - Variables live in memory; within a basic block a local register
//     allocator caches them (load on first use, write-back of dirty values
//     at block ends). This yields a realistic embedded instruction mix:
//     expression-heavy code stays register-bound while data-walking loops
//     show the load/store traffic the caches see.
//   - Locals of non-recursive functions get *static* homes (module-static
//     frames, common practice for DSP compilers of the era). This is also
//     what makes hardware/software rendezvous simple: every cluster
//     interface variable has a fixed shared-memory address the ASIC core
//     can read/write (paper Fig. 2a's shared-memory communication).
//     Recursive functions fall back to real stack frames; their regions
//     are not eligible for partitioning.
//   - A partitioned design is produced by compiling with Options.Exclude:
//     the entry of an excluded region assembles to a single ASIC
//     rendezvous instruction followed by a jump to the region's exit, and
//     the region's own blocks are dropped from the instruction stream
//     (which is why the partitioned designs in Table 1 also show reduced
//     I-cache energy).
//   - The output lets the ISS stand in for the interpreter. Every IR
//     block's first instruction is tagged and its IR ops are recorded in
//     segments that end at its calls, from which the ISS counts block
//     entries and IR steps. Every array's extent is recorded and named by
//     its LD/ST instructions, so the ISS can trap an out-of-range index
//     as the interpreter does. OpAt and SegmentOp map a fault the ISS
//     reports back to the IR op it stands for.
package codegen

import (
	"fmt"
	"sort"

	"lppart/internal/cdfg"
	"lppart/internal/isa"
	"lppart/internal/scratch"
)

// The default memory map, shared with the system model so that a program
// compiled on its own sees the map it was evaluated under.
const (
	DefaultMemWords   = 1 << 20
	DefaultStackWords = 1 << 14
)

// Options configures compilation.
type Options struct {
	// Exclude maps cdfg region IDs to ASIC core ids. Each excluded
	// region is replaced by one ASIC instruction.
	Exclude map[int]int
	// MemWords sets the data memory size in 32-bit words
	// (DefaultMemWords when 0).
	MemWords int
	// StackWords reserves stack space at the top of memory
	// (DefaultStackWords when 0); only recursive functions consume it.
	StackWords int
}

// Layout records where compilation placed every variable.
type Layout struct {
	// GlobalAddr[i] is the word address of cdfg Program.Globals[i].
	GlobalAddr []int32
	// StaticBase[fn][localID] is the word address of a local of a
	// non-recursive function (static frame).
	StaticBase map[string][]int32
	// FrameOff[fn][localID] is the SP-relative word offset of a local of
	// a recursive function.
	FrameOff map[string][]int32
	// FrameSize[fn] is the stack frame size (words) of a recursive
	// function, including the return-address slot at offset 0.
	FrameSize map[string]int32
	// Recursive marks functions that (transitively) may call themselves.
	Recursive map[string]bool
	// MemWords is the data memory size the program was compiled for.
	MemWords int

	raSlot []raEntry // static return-address slots (non-recursive funcs)
}

// VarAddr resolves a scalar or array variable to its static word address
// and size in words. ok is false for stack-resident (recursive) locals,
// which have no static home.
func (l *Layout) VarAddr(p *cdfg.Program, fn string, global bool, id int) (addr, words int32, ok bool) {
	if global {
		v := p.Globals[id]
		words = 1
		if v.IsArray() {
			words = v.Len
		}
		return l.GlobalAddr[id], words, true
	}
	if l.Recursive[fn] {
		return 0, 0, false
	}
	f := p.Func(fn)
	v := f.Locals[id]
	words = 1
	if v.IsArray() {
		words = v.Len
	}
	return l.StaticBase[fn][id], words, true
}

// Compile translates the program. The returned layout is needed by the
// system model (ASIC data exchange) and by differential tests.
func Compile(p *cdfg.Program, opts Options) (*isa.Program, *Layout, error) {
	if opts.MemWords == 0 {
		opts.MemWords = DefaultMemWords
	}
	if opts.StackWords == 0 {
		opts.StackWords = DefaultStackWords
	}
	lay := &Layout{
		StaticBase: make(map[string][]int32),
		FrameOff:   make(map[string][]int32),
		FrameSize:  make(map[string]int32),
		Recursive:  findRecursive(p),
		MemWords:   opts.MemWords,
	}
	// Data layout: reserve the first 8 words, then globals, then static
	// frames (return-address slot first, then locals).
	next := int32(8)
	for _, g := range p.Globals {
		lay.GlobalAddr = append(lay.GlobalAddr, next)
		if g.IsArray() {
			next += g.Len
		} else {
			next++
		}
	}
	for _, f := range p.Funcs {
		if lay.Recursive[f.Name] {
			offs := make([]int32, len(f.Locals))
			off := int32(1) // slot 0: saved RA
			for i, v := range f.Locals {
				offs[i] = off
				if v.IsArray() {
					off += v.Len
				} else {
					off++
				}
			}
			lay.FrameOff[f.Name] = offs
			lay.FrameSize[f.Name] = off
			continue
		}
		base := make([]int32, len(f.Locals))
		lay.StaticBase[f.Name] = base
		lay.raSlot = append(lay.raSlot, raEntry{fn: f.Name, addr: next})
		next++ // static return-address slot
		for i, v := range f.Locals {
			base[i] = next
			if v.IsArray() {
				next += v.Len
			} else {
				next++
			}
		}
	}
	if int(next)+opts.StackWords > opts.MemWords {
		return nil, nil, fmt.Errorf("codegen: data (%d words) plus stack (%d) exceed memory (%d)",
			next, opts.StackWords, opts.MemWords)
	}

	buf := codeBufs.Get()
	cg := &compiler{prog: p, opts: opts, lay: lay, code: (*buf)[:0],
		calls: []pendingCall{}, funcs: make(map[string]int)}
	defer func() {
		clear(cg.code) // recycled memory keeps no Comment alive
		*buf = cg.code[:0]
		codeBufs.Put(buf)
	}()
	cg.layoutTables()
	// Startup stub: call main, halt.
	cg.emit(isa.Instr{Op: isa.CALL, Region: -1, Comment: "startup"})
	cg.calls = append(cg.calls, pendingCall{at: 0, callee: "main"})
	cg.emit(isa.Instr{Op: isa.HALT, Region: -1})

	for fi, f := range p.Funcs {
		if err := cg.compileFunc(fi, f); err != nil {
			return nil, nil, err
		}
		cg.blockBase += len(f.Blocks)
	}
	for _, pc := range cg.calls {
		at, ok := cg.funcs[pc.callee]
		if !ok {
			return nil, nil, fmt.Errorf("codegen: call to unknown function %q", pc.callee)
		}
		cg.code[pc.at].Target = at
	}
	code := make([]isa.Instr, len(cg.code))
	copy(code, cg.code)
	return &isa.Program{
		Name:      p.Name,
		Code:      code,
		Entry:     0,
		Funcs:     cg.funcs,
		MemWords:  opts.MemWords,
		DataWords: int(next),
		BlockOps:  cg.blockOps,
		Arrays:    cg.arrays,
	}, lay, nil
}

// layoutTables picks every function's pinned locals, sizes the block op
// count and array extent tables exactly, and fills in every block's entry
// charge (segmentOps) and the global arrays' extents.
func (c *compiler) layoutTables() {
	p := c.prog
	nBlocks, nArrays, maxLocals := 0, 0, 0
	for _, g := range p.Globals {
		if g.IsArray() {
			nArrays++
		}
	}
	c.pinned = make([]map[int]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		if !c.lay.Recursive[f.Name] {
			c.pinned[fi] = pickPinned(f)
		}
		nBlocks += len(f.Blocks)
		maxLocals = max(maxLocals, len(f.Locals))
		for _, v := range f.Locals {
			if v.IsArray() {
				nArrays++
			}
		}
	}
	c.blockOps = make([]int32, 0, nBlocks)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			c.blockOps = append(c.blockOps, segmentOps(b.Ops))
		}
	}
	c.arrays = make([]isa.Extent, 0, nArrays)
	c.globalArr = make([]int32, len(p.Globals))
	for gi, g := range p.Globals {
		if g.IsArray() {
			c.arrays = append(c.arrays, isa.Extent{Base: c.lay.GlobalAddr[gi], Len: g.Len})
			c.globalArr[gi] = int32(len(c.arrays))
		}
	}
	c.tagBuf = make([]int32, 0, maxLocals)
}

// localArrays appends the extents of f's array locals to the array table
// and returns, per local ID, the Target of its LD/ST instructions (0 for
// scalars). The returned slice is reused for the next function.
func (c *compiler) localArrays(f *cdfg.Function) []int32 {
	tags := c.tagBuf[:0]
	for li, v := range f.Locals {
		tag := int32(0)
		if v.IsArray() {
			e := isa.Extent{Len: v.Len}
			if c.lay.Recursive[f.Name] {
				e.Base, e.SP = c.lay.FrameOff[f.Name][li], true
			} else {
				e.Base = c.lay.StaticBase[f.Name][li]
			}
			c.arrays = append(c.arrays, e)
			tag = int32(len(c.arrays))
		}
		tags = append(tags, tag)
	}
	c.tagBuf = tags
	return tags
}

type raEntry struct {
	fn   string
	addr int32
}

// raAddr returns the static return-address slot of a non-recursive
// function.
func (l *Layout) raAddr(fn string) int32 {
	for _, e := range l.raSlot {
		if e.fn == fn {
			return e.addr
		}
	}
	panic("codegen: no RA slot for " + fn)
}

type pendingCall struct {
	at     int
	callee string
}

// codeBufs recycles the code array Compile emits into; the program gets
// an exact copy of it.
var codeBufs = scratch.Pool[[]isa.Instr]{New: func() *[]isa.Instr { return new([]isa.Instr) }}

type compiler struct {
	prog  *cdfg.Program
	opts  Options
	lay   *Layout
	code  []isa.Instr // a recycled buffer from codeBufs
	calls []pendingCall
	funcs map[string]int

	// blockOps holds every block's op count in program block order (see
	// isa.Program); blockBase is the index of the current function's
	// block 0 in it.
	blockOps  []int32
	blockBase int
	// arrays holds every array's extent; globalArr[globalID] is 1 + a
	// global array's index in it, the Target of its LD/ST instructions
	// (0 for scalars). tagBuf backs fnCtx.localArr.
	arrays    []isa.Extent
	globalArr []int32
	tagBuf    []int32
	// pinned[fi] is function fi's pickPinned result (nil when
	// recursive).
	pinned []map[int]int
}

func (c *compiler) emit(i isa.Instr) int {
	c.code = append(c.code, i)
	return len(c.code) - 1
}

// findRecursive marks every function on a call-graph cycle (or reaching
// one), conservatively treating them as needing stack frames.
func findRecursive(p *cdfg.Program) map[string]bool {
	callees := make(map[string][]string)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Ops {
				if b.Ops[i].Code == cdfg.Call {
					callees[f.Name] = append(callees[f.Name], b.Ops[i].Callee)
				}
			}
		}
	}
	rec := make(map[string]bool)
	for _, f := range p.Funcs {
		// DFS from f: can we reach f again?
		seen := make(map[string]bool)
		var stack []string
		stack = append(stack, callees[f.Name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == f.Name {
				rec[f.Name] = true
				break
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, callees[n]...)
		}
	}
	return rec
}

// fnCtx is the per-function compilation context.
type fnCtx struct {
	c         *compiler
	fn        *cdfg.Function
	localArr  []int32 // local ID -> Target of its array accesses
	recursive bool
	blockAt   []int         // block ID -> instruction index, -1 if not emitted
	fixups    []blockFixup  // branches to patch
	regionOf  []int         // block ID -> innermost region ID (-1 outside)
	excluded  map[int]bool  // block IDs dropped (inside excluded regions)
	asicEntry map[int]entry // region entry block ID -> (asic id, exit block, region id)
	// pinned maps hot local IDs to the dedicated registers that hold
	// them for the whole function body (register promotion). Only
	// call-free, non-recursive functions pin; see pickPinned.
	pinned map[int]int
	// tempUses counts reads of each temporary; single-use temporaries
	// (the common case: expression-tree values) are freed on read and
	// never written back to memory. It is indexed by local ID.
	tempUses []int32
}

// countTempUses tallies how often each temporary local is read.
func countTempUses(f *cdfg.Function) []int32 {
	uses := make([]int32, len(f.Locals))
	var buf []cdfg.VarRef
	for _, b := range f.Blocks {
		for i := range b.Ops {
			buf = b.Ops[i].AppendUses(buf[:0])
			for _, u := range buf {
				if !u.Global && f.Locals[u.ID].Temp {
					uses[u.ID]++
				}
			}
		}
	}
	return uses
}

// pickPinned selects up to isa.MaxPinned scalar locals with the highest
// static reference counts for whole-function register residency — the
// register promotion every real embedded compiler performs for loop
// counters and accumulators. Functions that make calls cannot pin (the
// callee clobbers the temporaries).
func pickPinned(f *cdfg.Function) map[int]int {
	count := make(map[int]int)
	var uses []cdfg.VarRef
	for _, b := range f.Blocks {
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.Code == cdfg.Call {
				return nil
			}
			uses = op.AppendUses(uses[:0])
			for _, u := range uses {
				if !u.Global && !f.Locals[u.ID].Temp && !f.Locals[u.ID].IsArray() {
					count[u.ID]++
				}
			}
			if d := op.Def(); d.Valid() && !d.Global &&
				!f.Locals[d.ID].Temp && !f.Locals[d.ID].IsArray() {
				count[d.ID]++
			}
		}
	}
	type cand struct{ id, n int }
	var cands []cand
	for id, n := range count {
		if n >= 3 {
			cands = append(cands, cand{id, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > isa.MaxPinned {
		cands = cands[:isa.MaxPinned]
	}
	pinned := make(map[int]int, len(cands))
	for i, c := range cands {
		pinned[c.id] = isa.FirstPinned + i
	}
	return pinned
}

type entry struct {
	asicID int
	exit   int
	region int32
}

type blockFixup struct {
	at    int
	block int
}

// sortedPinned returns the pinned local IDs in deterministic order.
func sortedPinned(pinned map[int]int) []int {
	ids := make([]int, 0, len(pinned))
	for id := range pinned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (c *compiler) compileFunc(fi int, f *cdfg.Function) error {
	fx := &fnCtx{
		c:         c,
		fn:        f,
		localArr:  c.localArrays(f),
		recursive: c.lay.Recursive[f.Name],
		blockAt:   make([]int, len(f.Blocks)),
		excluded:  make(map[int]bool),
		asicEntry: make(map[int]entry),
	}
	for i := range fx.blockAt {
		fx.blockAt[i] = -1
	}
	fx.pinned = c.pinned[fi]
	fx.tempUses = countTempUses(f)
	fx.regionOf = innermostRegions(f)
	// Resolve excluded regions belonging to this function.
	if f.Root != nil {
		for _, r := range f.Root.AllRegions() {
			asicID, ok := c.opts.Exclude[r.ID]
			if !ok {
				continue
			}
			if fx.recursive {
				return fmt.Errorf("codegen: cannot exclude region %s of recursive function %s", r.Label, f.Name)
			}
			if r.HasReturns() {
				return fmt.Errorf("codegen: region %s contains a return", r.Label)
			}
			exit, err := r.Exit()
			if err != nil {
				return err
			}
			for _, bid := range r.Blocks {
				fx.excluded[bid] = true
			}
			fx.asicEntry[r.Entry] = entry{asicID: asicID, exit: exit, region: int32(r.ID)}
		}
	}

	c.funcs[f.Name] = len(c.code)
	// Prologue.
	if fx.recursive {
		frame := c.lay.FrameSize[f.Name]
		c.emit(isa.Instr{Op: isa.SUB, Rd: isa.SP, Rs1: isa.SP, Imm: frame, UseImm: true,
			Region: -1, Comment: f.Name + " prologue"})
		c.emit(isa.Instr{Op: isa.ST, Rs1: isa.SP, Rs2: isa.RA, Imm: 0, Region: -1, Comment: "save ra"})
		for i, pid := range f.Params {
			c.emit(isa.Instr{Op: isa.ST, Rs1: isa.SP, Rs2: isa.A0 + i,
				Imm: c.lay.FrameOff[f.Name][pid], Region: -1, Comment: "spill arg"})
		}
	} else {
		c.emit(isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: isa.RA, Imm: c.lay.raAddr(f.Name),
			Region: -1, Comment: f.Name + " prologue: save ra"})
		for i, pid := range f.Params {
			if r, ok := fx.pinned[pid]; ok {
				c.emit(isa.Instr{Op: isa.MOV, Rd: r, Rs1: isa.A0 + i,
					Region: -1, Comment: "pin arg"})
				continue
			}
			c.emit(isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: isa.A0 + i,
				Imm: c.lay.StaticBase[f.Name][pid], Region: -1, Comment: "spill arg"})
		}
		// Pinned non-parameter locals start at zero, like their homes.
		isParam := make(map[int]bool, len(f.Params))
		for _, pid := range f.Params {
			isParam[pid] = true
		}
		for _, id := range sortedPinned(fx.pinned) {
			if !isParam[id] {
				c.emit(isa.Instr{Op: isa.LI, Rd: fx.pinned[id], Imm: 0,
					Region: -1, Comment: "zero pinned " + f.Locals[id].Name})
			}
		}
	}
	// The prologue falls through to the entry block; emit it first, then
	// the remaining blocks in ID order.
	order := []int{f.Entry}
	for _, b := range f.Blocks {
		if b.ID != f.Entry {
			order = append(order, b.ID)
		}
	}
	for _, bid := range order {
		if fx.excluded[bid] {
			if e, isEntry := fx.asicEntry[bid]; isEntry {
				fx.blockAt[bid] = len(c.code)
				// Rendezvous: deposit the pinned locals in shared memory
				// so the ASIC core sees them, trigger, then re-load what
				// the cluster may have changed (Fig. 2a steps a-d).
				for _, id := range sortedPinned(fx.pinned) {
					c.emit(isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: fx.pinned[id],
						Imm: c.lay.StaticBase[f.Name][id], Region: e.region, Comment: "deposit " + f.Locals[id].Name})
				}
				c.emit(isa.Instr{Op: isa.ASIC, Imm: int32(e.asicID), Region: e.region,
					Comment: fmt.Sprintf("cluster region %d -> ASIC core %d", e.region, e.asicID)})
				for _, id := range sortedPinned(fx.pinned) {
					c.emit(isa.Instr{Op: isa.LD, Rd: fx.pinned[id], Rs1: isa.Zero,
						Imm: c.lay.StaticBase[f.Name][id], Region: e.region, Comment: "readback " + f.Locals[id].Name})
				}
				fx.fixups = append(fx.fixups, blockFixup{at: c.emit(isa.Instr{Op: isa.B, Region: -1}), block: e.exit})
			}
			continue
		}
		at := len(c.code)
		fx.blockAt[bid] = at
		if err := fx.compileBlock(f.Block(bid)); err != nil {
			return err
		}
		if len(c.code) == at {
			// Two blocks would share a first instruction, and the ISS
			// could not tell their entries apart.
			return fmt.Errorf("codegen: %s: block b%d compiles to no instructions", f.Name, bid)
		}
		c.code[at].Block = int32(c.blockBase + bid + 1)
	}
	for _, fix := range fx.fixups {
		if fix.block < 0 || fix.block >= len(fx.blockAt) || fx.blockAt[fix.block] < 0 {
			return fmt.Errorf("codegen: %s: branch to missing block b%d", f.Name, fix.block)
		}
		c.code[fix.at].Target = fx.blockAt[fix.block]
	}
	return nil
}

// innermostRegions maps each block to the deepest region containing it.
func innermostRegions(f *cdfg.Function) []int {
	out := make([]int, len(f.Blocks))
	for i := range out {
		out[i] = -1
	}
	if f.Root == nil {
		return out
	}
	depth := make([]int, len(f.Blocks))
	for i := range depth {
		depth[i] = -1
	}
	f.Root.Walk(func(r *cdfg.Region) {
		d := r.Depth()
		for _, bid := range r.Blocks {
			if d > depth[bid] {
				depth[bid] = d
				out[bid] = r.ID
			}
		}
	})
	return out
}

// --- per-block register allocation -----------------------------------

type slotKey struct {
	global bool
	id     int
}

// regState is the block-local allocator.
type regState struct {
	fx      *fnCtx
	region  int32 // region tag for emitted instructions
	slotOf  [isa.NumRegs]slotKey
	hasSlot [isa.NumRegs]bool
	dirty   [isa.NumRegs]bool
	pinned  [isa.NumRegs]bool
	lastUse [isa.NumRegs]int
	inReg   map[slotKey]int
	tick    int
}

func newRegState(fx *fnCtx, region int) *regState {
	return &regState{fx: fx, region: int32(region), inReg: make(map[slotKey]int)}
}

func (rs *regState) emit(i isa.Instr) {
	i.Region = rs.region
	rs.fx.c.emit(i)
}

// homeAddr returns (base register, offset) of a slot's memory home.
func (rs *regState) homeAddr(k slotKey) (int, int32) {
	fx := rs.fx
	if k.global {
		return isa.Zero, fx.c.lay.GlobalAddr[k.id]
	}
	if fx.recursive {
		return isa.SP, fx.c.lay.FrameOff[fx.fn.Name][k.id]
	}
	return isa.Zero, fx.c.lay.StaticBase[fx.fn.Name][k.id]
}

// arrayTag returns the Target that bounds an array's LD/ST instructions.
func (fx *fnCtx) arrayTag(a cdfg.ArrRef) int {
	if a.Global {
		return int(fx.c.globalArr[a.ID])
	}
	return int(fx.localArr[a.ID])
}

// arrBase returns (base register, offset) of an array's first element.
func (rs *regState) arrBase(a cdfg.ArrRef) (int, int32) {
	return rs.homeAddr(slotKey{a.Global, a.ID})
}

func (rs *regState) touch(r int) {
	rs.tick++
	rs.lastUse[r] = rs.tick
}

// alloc finds a free register, evicting the least recently used unpinned
// binding if necessary.
func (rs *regState) alloc() int {
	for r := isa.FirstTemp; r <= isa.LastTemp; r++ {
		if !rs.hasSlot[r] && !rs.pinned[r] {
			rs.touch(r)
			return r
		}
	}
	victim, best := -1, 1<<62
	for r := isa.FirstTemp; r <= isa.LastTemp; r++ {
		if rs.pinned[r] {
			continue
		}
		if rs.lastUse[r] < best {
			best = rs.lastUse[r]
			victim = r
		}
	}
	if victim == -1 {
		panic("codegen: all registers pinned")
	}
	rs.evict(victim)
	rs.touch(victim)
	return victim
}

func (rs *regState) evict(r int) {
	if !rs.hasSlot[r] {
		return
	}
	k := rs.slotOf[r]
	if rs.dirty[r] {
		base, off := rs.homeAddr(k)
		rs.emit(isa.Instr{Op: isa.ST, Rs1: base, Rs2: r, Imm: off})
	}
	delete(rs.inReg, k)
	rs.hasSlot[r] = false
	rs.dirty[r] = false
}

// read returns a register holding the slot's current value.
func (rs *regState) read(k slotKey) int {
	if !k.global {
		if r, ok := rs.fx.pinned[k.id]; ok {
			return r
		}
	}
	if r, ok := rs.inReg[k]; ok {
		rs.touch(r)
		rs.releaseIfDeadTemp(r, k)
		return r
	}
	r := rs.alloc()
	base, off := rs.homeAddr(k)
	rs.emit(isa.Instr{Op: isa.LD, Rd: r, Rs1: base, Imm: off})
	rs.bind(r, k, false)
	rs.releaseIfDeadTemp(r, k)
	return r
}

// releaseIfDeadTemp drops the binding of a single-use temporary the moment
// it is read: its value lives on in the register until the consuming
// instruction is emitted (callers pin across allocations), and it must
// never be written back to memory.
func (rs *regState) releaseIfDeadTemp(r int, k slotKey) {
	if k.global {
		return
	}
	l := &rs.fx.fn.Locals[k.id]
	if !l.Temp || rs.fx.tempUses[k.id] != 1 {
		return
	}
	delete(rs.inReg, k)
	rs.hasSlot[r] = false
	rs.dirty[r] = false
}

// writeReg returns a register to hold a new value of the slot (no load).
func (rs *regState) writeReg(k slotKey) int {
	if !k.global {
		if r, ok := rs.fx.pinned[k.id]; ok {
			return r
		}
	}
	if r, ok := rs.inReg[k]; ok {
		rs.touch(r)
		rs.dirty[r] = true
		return r
	}
	r := rs.alloc()
	rs.bind(r, k, true)
	return r
}

func (rs *regState) bind(r int, k slotKey, dirty bool) {
	rs.slotOf[r] = k
	rs.hasSlot[r] = true
	rs.dirty[r] = dirty
	rs.inReg[k] = r
}

// operandReg materializes an operand into a register. Constants get a
// fresh unbound register via LI (zero becomes r0 for free).
func (rs *regState) operandReg(o cdfg.Operand) int {
	if o.IsConst {
		if o.K == 0 {
			return isa.Zero
		}
		r := rs.alloc()
		rs.emit(isa.Instr{Op: isa.LI, Rd: r, Imm: o.K})
		return r
	}
	return rs.read(slotKey{o.Ref.Global, o.Ref.ID})
}

// flush writes all dirty registers back to memory (deterministic order)
// and drops every binding. Used at block ends and around calls.
func (rs *regState) flush() {
	var regs []int
	for r := isa.FirstTemp; r <= isa.LastTemp; r++ {
		if rs.hasSlot[r] {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		a, b := rs.slotOf[regs[i]], rs.slotOf[regs[j]]
		if a.global != b.global {
			return a.global
		}
		return a.id < b.id
	})
	for _, r := range regs {
		rs.evict(r)
	}
}

func (rs *regState) pin(r int)   { rs.pinned[r] = true }
func (rs *regState) unpin(r int) { rs.pinned[r] = false }

// --- block compilation -------------------------------------------------

var opToISA = map[cdfg.Opcode]isa.Opcode{
	cdfg.Add: isa.ADD, cdfg.Sub: isa.SUB, cdfg.Mul: isa.MUL,
	cdfg.Div: isa.DIV, cdfg.Rem: isa.REM,
	cdfg.And: isa.AND, cdfg.Or: isa.OR, cdfg.Xor: isa.XOR,
	cdfg.Shl: isa.SLL, cdfg.Shr: isa.SRA,
	cdfg.Eq: isa.CMPEQ, cdfg.Ne: isa.CMPNE, cdfg.Lt: isa.CMPLT,
	cdfg.Le: isa.CMPLE, cdfg.Gt: isa.CMPGT, cdfg.Ge: isa.CMPGE,
}

func (fx *fnCtx) compileBlock(b *cdfg.Block) error {
	rs := newRegState(fx, fx.regionOf[b.ID])
	for i := range b.Ops {
		if err := fx.compileOp(rs, &b.Ops[i], b.Ops[i+1:]); err != nil {
			return err
		}
	}
	return nil
}

// compileOp compiles op; after holds the ops that follow it in its block.
func (fx *fnCtx) compileOp(rs *regState, op *cdfg.Op, after []cdfg.Op) error {
	c := fx.c
	dstKey := func() slotKey { return slotKey{op.Dst.Global, op.Dst.ID} }
	switch {
	case op.Code == cdfg.Nop:
		return nil

	case op.Code == cdfg.ConstOp:
		rd := rs.writeReg(dstKey())
		rs.emit(isa.Instr{Op: isa.LI, Rd: rd, Imm: op.Imm})
		return nil

	case op.Code == cdfg.Copy:
		ra := rs.operandReg(op.A)
		rs.pin(ra)
		rd := rs.writeReg(dstKey())
		rs.unpin(ra)
		if rd != ra {
			rs.emit(isa.Instr{Op: isa.MOV, Rd: rd, Rs1: ra})
		}
		return nil

	case op.Code == cdfg.LAnd || op.Code == cdfg.LOr:
		// Strict boolean ops: (a != 0) op (b != 0).
		ra := rs.operandReg(op.A)
		rs.pin(ra)
		rb := rs.operandReg(op.B)
		rs.pin(rb)
		na := rs.alloc()
		rs.pin(na)
		rs.emit(isa.Instr{Op: isa.CMPNE, Rd: na, Rs1: ra, Imm: 0, UseImm: true})
		nb := rs.alloc()
		rs.emit(isa.Instr{Op: isa.CMPNE, Rd: nb, Rs1: rb, Imm: 0, UseImm: true})
		rs.unpin(na)
		rs.unpin(ra)
		rs.unpin(rb)
		rs.pin(na)
		rs.pin(nb)
		rd := rs.writeReg(dstKey())
		rs.unpin(na)
		rs.unpin(nb)
		code := isa.AND
		if op.Code == cdfg.LOr {
			code = isa.OR
		}
		rs.emit(isa.Instr{Op: code, Rd: rd, Rs1: na, Rs2: nb})
		return nil

	case op.Code.IsBinary():
		ra := rs.operandReg(op.A)
		rs.pin(ra)
		if op.B.IsConst {
			rd := rs.writeReg(dstKey())
			rs.unpin(ra)
			rs.emit(isa.Instr{Op: opToISA[op.Code], Rd: rd, Rs1: ra, Imm: op.B.K, UseImm: true})
			return nil
		}
		rb := rs.operandReg(op.B)
		rs.pin(rb)
		rd := rs.writeReg(dstKey())
		rs.unpin(ra)
		rs.unpin(rb)
		rs.emit(isa.Instr{Op: opToISA[op.Code], Rd: rd, Rs1: ra, Rs2: rb})
		return nil

	case op.Code == cdfg.Neg || op.Code == cdfg.Not:
		ra := rs.operandReg(op.A)
		rs.pin(ra)
		rd := rs.writeReg(dstKey())
		rs.unpin(ra)
		code := isa.NEG
		if op.Code == cdfg.Not {
			code = isa.NOT
		}
		rs.emit(isa.Instr{Op: code, Rd: rd, Rs1: ra})
		return nil

	case op.Code == cdfg.LNot:
		ra := rs.operandReg(op.A)
		rs.pin(ra)
		rd := rs.writeReg(dstKey())
		rs.unpin(ra)
		rs.emit(isa.Instr{Op: isa.CMPEQ, Rd: rd, Rs1: ra, Imm: 0, UseImm: true})
		return nil

	case op.Code == cdfg.Load:
		base, off := rs.arrBase(op.Arr)
		arr := fx.arrayTag(op.Arr)
		if op.A.IsConst {
			rd := rs.writeReg(dstKey())
			rs.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: base, Imm: off + op.A.K, Target: arr})
			return nil
		}
		ri := rs.operandReg(op.A)
		rs.pin(ri)
		addr := ri
		if base != isa.Zero {
			// Stack-resident array: address = base + index, element
			// offset folded into the LD displacement.
			rs.emit(isa.Instr{Op: isa.ADD, Rd: isa.AT, Rs1: base, Rs2: ri})
			addr = isa.AT
		}
		rd := rs.writeReg(dstKey())
		rs.unpin(ri)
		rs.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: addr, Imm: off, Target: arr})
		return nil

	case op.Code == cdfg.Store:
		base, off := rs.arrBase(op.Arr)
		arr := fx.arrayTag(op.Arr)
		rv := rs.operandReg(op.B)
		rs.pin(rv)
		if op.A.IsConst {
			rs.unpin(rv)
			rs.emit(isa.Instr{Op: isa.ST, Rs1: base, Rs2: rv, Imm: off + op.A.K, Target: arr})
			return nil
		}
		ri := rs.operandReg(op.A)
		rs.unpin(rv)
		addr := ri
		if base != isa.Zero {
			rs.emit(isa.Instr{Op: isa.ADD, Rd: isa.AT, Rs1: base, Rs2: ri})
			addr = isa.AT
		}
		rs.emit(isa.Instr{Op: isa.ST, Rs1: addr, Rs2: rv, Imm: off, Target: arr})
		return nil

	case op.Code == cdfg.Call:
		if len(op.Args) > isa.MaxArgs {
			return fmt.Errorf("codegen: call to %s has %d args, max %d", op.Callee, len(op.Args), isa.MaxArgs)
		}
		// Write everything back; the callee owns all temporaries.
		rs.flush()
		for i, a := range op.Args {
			switch {
			case a.IsConst:
				rs.emit(isa.Instr{Op: isa.LI, Rd: isa.A0 + i, Imm: a.K})
			default:
				k := slotKey{a.Ref.Global, a.Ref.ID}
				base, off := rs.homeAddr(k)
				rs.emit(isa.Instr{Op: isa.LD, Rd: isa.A0 + i, Rs1: base, Imm: off})
			}
		}
		at := c.emit(isa.Instr{Op: isa.CALL, Imm: segmentOps(after), Region: rs.region, Comment: "call " + op.Callee})
		c.calls = append(c.calls, pendingCall{at: at, callee: op.Callee})
		if op.Dst.Valid() {
			rd := rs.writeReg(dstKey())
			rs.emit(isa.Instr{Op: isa.MOV, Rd: rd, Rs1: isa.RV})
		}
		return nil

	case op.Code == cdfg.Ret:
		if op.A.Valid() {
			if op.A.IsConst {
				rs.emit(isa.Instr{Op: isa.LI, Rd: isa.RV, Imm: op.A.K})
			} else {
				ra := rs.operandReg(op.A)
				if ra != isa.RV {
					rs.emit(isa.Instr{Op: isa.MOV, Rd: isa.RV, Rs1: ra})
				}
			}
		}
		rs.flush()
		if fx.recursive {
			rs.emit(isa.Instr{Op: isa.LD, Rd: isa.RA, Rs1: isa.SP, Imm: 0, Comment: "restore ra"})
			rs.emit(isa.Instr{Op: isa.ADD, Rd: isa.SP, Rs1: isa.SP,
				Imm: c.lay.FrameSize[fx.fn.Name], UseImm: true})
		} else {
			rs.emit(isa.Instr{Op: isa.LD, Rd: isa.RA, Rs1: isa.Zero,
				Imm: c.lay.raAddr(fx.fn.Name), Comment: "restore ra"})
		}
		rs.emit(isa.Instr{Op: isa.JR, Rs1: isa.RA})
		return nil

	case op.Code == cdfg.Br:
		rs.flush()
		at := c.emit(isa.Instr{Op: isa.B, Region: rs.region})
		fx.fixups = append(fx.fixups, blockFixup{at: at, block: op.Target})
		return nil

	case op.Code == cdfg.CBr:
		rc := rs.operandReg(op.A)
		rs.pin(rc)
		rs.flush()
		rs.unpin(rc)
		at := c.emit(isa.Instr{Op: isa.BNEZ, Rs1: rc, Region: rs.region})
		fx.fixups = append(fx.fixups, blockFixup{at: at, block: op.Then})
		at = c.emit(isa.Instr{Op: isa.B, Region: rs.region})
		fx.fixups = append(fx.fixups, blockFixup{at: at, block: op.Else})
		return nil

	default:
		return fmt.Errorf("codegen: unimplemented opcode %v", op.Code)
	}
}
