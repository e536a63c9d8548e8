// Package iss is the instruction-set simulator with attached energy
// calculation ("an instruction set simulator tool (ISS) is used ...
// attached to the ISS is the facility to calculate the energy consumption
// depending on the instruction executed at a point in time (the same
// methodology as in [12])", paper §3.5).
//
// The simulator executes isa.Programs cycle- and energy-accurately at the
// instruction level: each instruction contributes its class base energy
// plus a circuit-state overhead when the class changes (Tiwari's model),
// and occupies the core for its class cycle count plus whatever extra
// cycles the memory system reports (cache misses). Memory *content* is
// owned by the ISS; the MemSystem callback only models timing and energy
// of the storage hierarchy, keeping the cache/memory cores cleanly
// separated as in the paper's design flow.
//
// The ISS also measures, per instruction class, which core-internal
// resources are actively used (tech.MicroprocessorSpec.Uses), yielding the
// µP-side utilization rate U_µP of Eq. 1/4 — both for the whole run and
// per cluster (instructions are tagged with their source region), which is
// what Fig. 1 line 9 compares against a candidate ASIC implementation.
//
// A program the code generator emitted carries block marks
// (isa.Program.BlockOps), and its run also counts how often each IR basic
// block is entered: the "#ex_times" the paper obtains through profiling
// (Fig. 4), with no second simulation. Such a run enforces the
// interpreter's IR step limit, charging each block's ops in segments
// that end at its calls. Every run traps the faults the interpreter
// traps: division by zero, an array index outside its array's extent,
// and call depth past the interpreter's limit. No run lets the stack
// grow into the static data (isa.Program.DataWords), so memory holds the
// interpreter's state and these faults strike at the ops where the
// interpreter traps. A SimError's Kind says which, and its PC (with
// codegen.OpAt or codegen.SegmentOp) locates the IR op, so the caller
// can name the fault as the interpreter does.
//
// When the program was compiled with excluded clusters, the ASIC
// instruction transfers control to an ASICHandler: the µP core is shut
// down while the ASIC core runs (Eq. 3's "whenever one of the cores is
// performing, all the other cores are shut down"), so ASIC cycles extend
// execution time but add no µP energy.
//
// A run's data memory is the simulator's one large allocation (4 MiB on
// the system's memory map). Result.Release hands it back, and the next
// run on any goroutine takes it again, cleared, also after garbage
// collections: a warm run allocates no memory.
package iss

import (
	"context"
	"fmt"
	"math"
	"slices"

	"lppart/internal/behav"
	"lppart/internal/isa"
	"lppart/internal/scratch"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// MemSystem models the timing and energy of instruction fetches and data
// accesses (caches + main memory). Implementations accumulate their own
// energy; the ISS only consumes the extra cycles.
type MemSystem interface {
	// FetchInstr is called once per executed instruction with its byte
	// address; it returns extra stall cycles (0 on a cache hit).
	FetchInstr(byteAddr uint32) (stallCycles int)
	// ReadData/WriteData are called for LD/ST with the word address.
	ReadData(wordAddr int32) (stallCycles int)
	WriteData(wordAddr int32) (stallCycles int)
}

// ASICHandler runs an ASIC core invocation on behalf of the rendezvous
// instruction. It returns the cycles the ASIC needed (in µP clock cycles,
// for execution-time accounting); energy is accounted inside the handler.
// The handler may read and write the shared memory.
type ASICHandler interface {
	RunASIC(id int32, mem []int32) (cycles int64, err error)
}

// Options configures a simulation.
type Options struct {
	// Micro is the µP core model; nil selects tech.Default().Micro.
	Micro *tech.MicroprocessorSpec
	// Mem models the storage hierarchy; nil means an ideal single-cycle
	// memory (no stalls, no extra energy).
	Mem MemSystem
	// ASIC handles rendezvous instructions; required only when the
	// program contains them.
	ASIC ASICHandler
	// MaxInstrs aborts runaway programs (default 500M). A program with
	// block marks also stops at the interpreter's step limit: MaxInstrs
	// IR operations, or 200M when MaxInstrs is 0. Each block entry adds
	// the IR ops up to the block's first call (isa.Program.BlockOps) to
	// the steps, and each return the ops up to the next call (the CALL's
	// Imm). On such a program the instruction limit does not stop the
	// run: it runs on, without the memory system, until it halts or
	// faults on the machine, which reports the instruction limit, or
	// until an IR-level fault or the step limit stops it, the error the
	// interpreter would report. Such a run returns only after a call, so
	// the step limit bounds its length.
	MaxInstrs int64
}

// maxDepth is the interpreter's call depth limit, counted up by CALL and
// down by JR.
const maxDepth = 1024

// RegionStat aggregates per-cluster statistics (keyed by cdfg region ID).
type RegionStat struct {
	Instrs int64
	Cycles int64
	Energy units.Energy
	// Active[k] counts cycles resource kind k was actively used while
	// executing this region's instructions (numerator of Eq. 1).
	Active [tech.NumResourceKinds]int64
}

// Utilization returns U_µP for the region per Eq. 4: the mean over the
// core's resource inventory of per-resource active-cycle ratios.
func (rs *RegionStat) Utilization(m *tech.MicroprocessorSpec) float64 {
	return utilization(m, rs.Active, rs.Cycles)
}

func utilization(m *tech.MicroprocessorSpec, active [tech.NumResourceKinds]int64, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		inventory := m.CoreResources[k]
		if inventory == 0 {
			continue
		}
		n += inventory
		u := float64(active[k]) / float64(cycles)
		if u > 1 {
			u = 1
		}
		sum += u // remaining (inventory-1) instances contribute 0
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Result is the outcome of a simulation.
type Result struct {
	RV     int32 // r1 at halt (main's return value)
	Instrs int64
	// Cycles is µP busy time; ASICCycles is time spent with the µP shut
	// down while ASIC cores ran. Total execution time is the sum.
	Cycles     int64
	ASICCycles int64
	// Energy is the µP core's energy only (caches/memory/bus/ASIC are
	// accounted in their own models).
	Energy   units.Energy
	PerClass [tech.NumInstrClasses]int64
	Active   [tech.NumResourceKinds]int64
	// Regions holds per-cluster statistics, keyed by cdfg region ID
	// (-1 collects untagged instructions).
	Regions map[int]*RegionStat
	// BlockEntries counts the entries to every IR block, in program
	// block order (isa.Program.BlockOps); nil when the program has no
	// block marks.
	BlockEntries []int64
	// Mem is the final data memory. It is valid until Release, which
	// hands it back to Run for reuse and sets Mem to nil; a caller that
	// never calls Release owns it outright.
	Mem []int32

	// buf is the recycled buffer backing Mem.
	buf *[]int32
}

// mems recycles released data memories between runs: the default memory
// map is 4 MiB, while the applications touch only their globals and a
// little stack.
var mems scratch.Pool[[]int32]

// Release hands the data memory back, so the next Run on any goroutine
// takes it instead of allocating one, and sets Mem to nil. It is safe on
// a nil Result and idempotent.
func (r *Result) Release() {
	if r == nil {
		return
	}
	if r.buf != nil {
		mems.Put(r.buf)
	}
	r.buf, r.Mem = nil, nil
}

// Utilization returns the whole-run U_µP.
func (r *Result) Utilization(m *tech.MicroprocessorSpec) float64 {
	return utilization(m, r.Active, r.Cycles)
}

// TotalCycles returns µP plus ASIC cycles — the Table 1 "total" column.
func (r *Result) TotalCycles() int64 { return r.Cycles + r.ASICCycles }

// Fault classifies a SimError by the IR-level fault it stands for.
type Fault uint8

// Fault kinds.
const (
	// Machine is a fault with no IR equivalent: a data address or pc
	// outside memory, a stack pointer below the static data's end, a
	// profiled run's return that does not follow a call, the instruction
	// limit, an ASIC core failure.
	Machine Fault = iota
	// Index is an array index outside its extent; PC is the LD or ST.
	Index
	// Div is a division or remainder by zero; PC is the DIV or REM.
	Div
	// Depth is a call past the interpreter's depth limit; PC is the CALL.
	Depth
	// Step is the IR step limit, which trips at op Op of the segment that
	// starts at PC (see codegen.SegmentOp).
	Step
)

// SimError is a simulation fault.
type SimError struct {
	PC   int
	Msg  string
	Kind Fault
	// Op is a Step fault's op index in its segment.
	Op int
	// Trip is the Step fault pending in the segment where an Index or Div
	// fault struck: the step limit tripped at the segment's charge, and
	// the interpreter reports whichever of the two ops comes first.
	Trip *SimError
}

// Error implements the error interface.
func (e *SimError) Error() string { return fmt.Sprintf("iss: pc=%d: %s", e.PC, e.Msg) }

// classOf maps machine opcodes to the energy model's instruction classes.
func classOf(op isa.Opcode) tech.InstrClass {
	switch op {
	case isa.LI, isa.MOV:
		return tech.IClassMove
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE,
		isa.NEG, isa.NOT:
		return tech.IClassALU
	case isa.SLL, isa.SRA:
		return tech.IClassShift
	case isa.MUL:
		return tech.IClassMul
	case isa.DIV, isa.REM:
		return tech.IClassDiv
	case isa.LD:
		return tech.IClassLoad
	case isa.ST:
		return tech.IClassStore
	case isa.B, isa.BEQZ, isa.BNEZ, isa.JR:
		return tech.IClassBranch
	case isa.CALL:
		return tech.IClassCall
	default: // NOP, HALT
		return tech.IClassNop
	}
}

// issToBinOp maps binary-ALU machine opcodes to their behavioral
// semantics. A dense array: this lookup sits on the per-instruction hot
// path of Run.
var issToBinOp = [isa.NumOpcodes]behav.BinOp{
	isa.ADD: behav.OpAdd, isa.SUB: behav.OpSub, isa.MUL: behav.OpMul,
	isa.DIV: behav.OpDiv, isa.REM: behav.OpRem,
	isa.AND: behav.OpAnd, isa.OR: behav.OpOr, isa.XOR: behav.OpXor,
	isa.SLL: behav.OpShl, isa.SRA: behav.OpShr,
	isa.CMPEQ: behav.OpEq, isa.CMPNE: behav.OpNeq, isa.CMPLT: behav.OpLt,
	isa.CMPLE: behav.OpLeq, isa.CMPGT: behav.OpGt, isa.CMPGE: behav.OpGeq,
}

// Run simulates the program to completion (HALT). The result's data
// memory is recycled; see Result.Release.
func Run(p *isa.Program, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, opts) //lint:ctx non-Ctx convenience wrapper
}

// RunCtx is Run with cancellation: the run looks at ctx every 65,536
// instructions (ctxCheckInstrs) and returns ctx.Err() once it is done.
func RunCtx(ctx context.Context, p *isa.Program, opts Options) (*Result, error) {
	bp := mems.Get()
	if bp != nil && cap(*bp) < p.MemWords {
		mems.Put(bp) // too small here, kept for a smaller program
		bp = nil
	}
	if bp == nil {
		bp = new([]int32)
	}
	*bp = slices.Grow((*bp)[:0], p.MemWords)[:p.MemWords]
	clear(*bp) // programs rely on zero-initialized globals
	res, err := run(ctx, p, opts, *bp)
	if err != nil {
		mems.Put(bp)
		return nil, err
	}
	res.buf = bp
	return res, nil
}

// ctxCheckInstrs is how many instructions a run executes between two
// looks at its ctx: about 3 ms of simulation, far apart enough that the
// check costs nothing per instruction.
const ctxCheckInstrs = 1 << 16

// run simulates the program on a zeroed data memory of p.MemWords words.
func run(ctx context.Context, p *isa.Program, opts Options, mem []int32) (*Result, error) {
	micro := opts.Micro
	if micro == nil {
		micro = &tech.Default().Micro
	}
	var regs [isa.NumRegs]int32
	regs[isa.SP] = int32(p.MemWords)
	depth := 0

	res := &Result{Regions: make(map[int]*RegionStat), Mem: mem}
	// Dense per-region accumulators indexed by region ID + 1 (untagged
	// instructions carry region -1). The public map is materialized at
	// HALT; the per-instruction loop below never touches a map.
	maxRegion := -1
	for i := range p.Code {
		maxRegion = max(maxRegion, int(p.Code[i].Region))
	}
	regStats := make([]RegionStat, maxRegion+2)
	finish := func() {
		for id := range regStats {
			if regStats[id].Instrs > 0 {
				res.Regions[id-1] = &regStats[id]
			}
		}
	}

	profile := len(p.BlockOps) > 0
	var steps, maxSteps int64
	// trip is the step limit's trip in the current segment. A charge past
	// maxSteps sets it; the segment's end (the next block entry, CALL or
	// return) reports it, unless an op of the segment faults first.
	var trip *SimError
	// limit is the instruction limit's error once it tripped on a run
	// with block marks; HALT and any machine fault then report it.
	var limit *SimError
	if profile {
		res.BlockEntries = make([]int64, len(p.BlockOps))
		maxSteps = opts.MaxInstrs
		if maxSteps == 0 {
			maxSteps = 200_000_000
		}
	}
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 500_000_000
	}

	// checkpoint is the next instruction count at which the loop looks
	// at ctx and the instruction limit: one compare per instruction
	// serves both.
	checkpoint := min(opts.MaxInstrs, ctxCheckInstrs)
	pc := p.Entry
	prevClass := tech.IClassNop
	for {
		if pc < 0 || pc >= len(p.Code) {
			return failed(&SimError{PC: pc, Msg: "pc out of range"}, limit)
		}
		ins := &p.Code[pc]
		if res.Instrs >= checkpoint {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if res.Instrs >= opts.MaxInstrs {
				e := &SimError{PC: pc, Msg: fmt.Sprintf("instruction limit %d exceeded", opts.MaxInstrs)}
				if !profile {
					return nil, e
				}
				// Run on to the end without the memory system; opts is
				// this run's own copy.
				limit, opts.MaxInstrs, opts.Mem = e, math.MaxInt64, nil
			}
			checkpoint = min(opts.MaxInstrs, res.Instrs+ctxCheckInstrs)
		}
		if profile && ins.Block != 0 {
			b := ins.Block - 1
			res.BlockEntries[b]++
			n := int64(p.BlockOps[b])
			if steps += n; steps > maxSteps {
				if trip != nil {
					return nil, trip
				}
				trip = stepTrip(pc, steps-n, maxSteps)
			}
		}

		if ins.Op == isa.HALT {
			if trip != nil {
				return nil, trip
			}
			if limit != nil {
				return nil, limit
			}
			res.RV = regs[isa.RV]
			finish()
			return res, nil
		}
		if ins.Op == isa.ASIC {
			if opts.ASIC == nil {
				return failed(&SimError{PC: pc, Msg: "ASIC instruction without handler"}, limit)
			}
			// The rendezvous itself costs one µP cycle (trigger write);
			// then the µP shuts down for the ASIC's duration.
			res.Instrs++
			res.Cycles++
			cyc, err := opts.ASIC.RunASIC(ins.Imm, mem)
			if err != nil {
				return failed(&SimError{PC: pc, Msg: fmt.Sprintf("ASIC core %d: %v", ins.Imm, err)}, limit)
			}
			res.ASICCycles += cyc
			pc++
			continue
		}

		res.Instrs++
		class := classOf(ins.Op)
		res.PerClass[class]++
		cycles := int64(micro.CyclesFor[class])
		if opts.Mem != nil {
			cycles += int64(opts.Mem.FetchInstr(isa.ByteAddr(pc)))
		}
		energy := micro.InstrEnergy(prevClass, class)
		prevClass = class

		next := pc + 1
		switch ins.Op {
		case isa.NOP:
		case isa.LI:
			regs[ins.Rd] = ins.Imm
		case isa.MOV:
			regs[ins.Rd] = regs[ins.Rs1]
		case isa.NEG:
			regs[ins.Rd] = -regs[ins.Rs1]
		case isa.NOT:
			regs[ins.Rd] = ^regs[ins.Rs1]
		case isa.LD:
			addr := regs[ins.Rs1] + ins.Imm
			if ins.Target != 0 {
				if err := checkIndex(p, pc, addr, regs[isa.SP]); err != nil {
					err.Trip = trip
					return nil, err
				}
			}
			if addr < 0 || int(addr) >= len(mem) {
				return failed(&SimError{PC: pc, Msg: fmt.Sprintf("load address %d out of range", addr)}, limit)
			}
			if opts.Mem != nil {
				cycles += int64(opts.Mem.ReadData(addr))
			}
			regs[ins.Rd] = mem[addr]
		case isa.ST:
			addr := regs[ins.Rs1] + ins.Imm
			if ins.Target != 0 {
				if err := checkIndex(p, pc, addr, regs[isa.SP]); err != nil {
					err.Trip = trip
					return nil, err
				}
			}
			if addr < 0 || int(addr) >= len(mem) {
				return failed(&SimError{PC: pc, Msg: fmt.Sprintf("store address %d out of range", addr)}, limit)
			}
			if opts.Mem != nil {
				cycles += int64(opts.Mem.WriteData(addr))
			}
			mem[addr] = regs[ins.Rs2]
		case isa.B:
			next = ins.Target
		case isa.BEQZ:
			if regs[ins.Rs1] == 0 {
				next = ins.Target
			}
		case isa.BNEZ:
			if regs[ins.Rs1] != 0 {
				next = ins.Target
			}
		case isa.CALL:
			// A Call op ends its segment: a pending trip is at or before it.
			if trip != nil {
				return nil, trip
			}
			depth++
			if depth > maxDepth {
				return nil, &SimError{PC: pc, Msg: fmt.Sprintf("call depth exceeds %d", maxDepth), Kind: Depth}
			}
			regs[isa.RA] = int32(pc + 1)
			next = ins.Target
		case isa.JR:
			depth--
			next = int(regs[ins.Rs1])
			if profile {
				// The caller's block resumes with the segment after its
				// call. A compiled program only returns there, so every
				// cycle of its control flow passes a block mark or a
				// call's segment, and the step limit bounds every run.
				if next <= 0 || next > len(p.Code) || p.Code[next-1].Op != isa.CALL {
					return failed(&SimError{PC: pc, Msg: fmt.Sprintf("return to pc %d, not after a call", next)}, limit)
				}
				n := int64(p.Code[next-1].Imm)
				if steps += n; steps > maxSteps {
					if trip != nil {
						return nil, trip
					}
					trip = stepTrip(next, steps-n, maxSteps)
				}
			}
		default:
			if !ins.Op.IsBinaryALU() {
				return failed(&SimError{PC: pc, Msg: fmt.Sprintf("unimplemented opcode %v", ins.Op)}, limit)
			}
			b := regs[ins.Rs2]
			if ins.UseImm {
				b = ins.Imm
			}
			v, err := behav.EvalBinOp(issToBinOp[ins.Op], regs[ins.Rs1], b)
			if err != nil {
				return nil, &SimError{PC: pc, Msg: err.Error(), Kind: Div, Trip: trip}
			}
			if ins.Rd == isa.SP && int(v) < p.DataWords {
				return failed(&SimError{PC: pc, Msg: fmt.Sprintf("stack pointer %d below the static data's end %d", v, p.DataWords)}, limit)
			}
			regs[ins.Rd] = v
		}
		regs[isa.Zero] = 0 // r0 stays hardwired

		res.Cycles += cycles
		res.Energy += energy
		st := &regStats[ins.Region+1]
		st.Instrs++
		st.Cycles += cycles
		st.Energy += energy
		activeCycles := int64(micro.CyclesFor[class])
		for _, k := range micro.Uses[class] {
			res.Active[k] += activeCycles
			st.Active[k] += activeCycles
		}

		pc = next
	}
}

// stepTrip is the step limit's trip in the segment that starts at seg,
// where the count before the segment's charge was before.
func stepTrip(seg int, before, maxSteps int64) *SimError {
	return &SimError{PC: seg, Msg: fmt.Sprintf("step limit %d exceeded", maxSteps), Kind: Step,
		Op: int(maxSteps - before)}
}

// failed reports a machine fault, or the instruction limit's error if
// that tripped first.
func failed(e, limit *SimError) (*Result, error) {
	if limit != nil {
		return nil, limit
	}
	return nil, e
}

// checkIndex bounds the array access at pc: addr must lie in the extent
// its Target names. The index is computed in wrapping int32 arithmetic,
// like the address, so it equals the source-level index.
func checkIndex(p *isa.Program, pc int, addr, sp int32) *SimError {
	e := &p.Arrays[p.Code[pc].Target-1]
	base := e.Base
	if e.SP {
		base += sp
	}
	if idx := addr - base; uint32(idx) >= uint32(e.Len) {
		return &SimError{PC: pc, Msg: fmt.Sprintf("index %d out of range [0,%d)", idx, e.Len), Kind: Index}
	}
	return nil
}
