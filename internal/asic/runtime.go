package asic

import (
	"fmt"
	"math/bits"

	"lppart/internal/behav"
	"lppart/internal/bus"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/dataflow"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// Core is a synthesized ASIC core ready for co-simulation: it plugs into
// the ISS as the handler of the rendezvous instruction and executes the
// cluster's semantics on the shared memory while accounting cycle- and
// switching-accurate energy ("gate-level simulation tool with attached
// switching energy calculation", paper §3.5).
//
// The invocation protocol is the paper's Fig. 2a / §3.3 transfer scheme:
//
//	a/b) the cluster's live-in set (use[c]) is downloaded from shared
//	     memory over the bus into core-local registers and buffers,
//	c/d)  after execution the live-out set (gen[c] ∩ use[C_succ]) is
//	     deposited back for the µP to read.
//
// Everything the cluster touches is synchronized functionally so the
// co-simulation stays exact, but only the live sets are *charged* as
// transfers — matching Fig. 3's accounting.
//
// All per-invocation state lives in dense tables sized at NewCore:
// scalars (temporaries included) and arrays by interned dataflow slot, one
// opState row per op ID, and block latencies by block ID. A steady-state
// RunASIC performs no heap allocation and no map lookups.
type Core struct {
	ID      int
	Region  *cdfg.Region
	Binding *Binding

	prog *cdfg.Program
	lay  *codegen.Layout
	lib  *tech.Library
	bus  *bus.Bus
	mem  *mem.Memory
	// µP clock period, for converting ASIC cycles to system cycles.
	microClock units.Time

	ix                *dataflow.Index
	genAll, touched   []varSpan
	inWords, outWords int // live-in and live-out transfer words per invocation
	exitBlock         int

	// Accounting.
	Invocations int64
	CyclesASIC  int64 // in ASIC clock cycles
	CyclesMuP   int64 // as seen by the system (µP clock), incl. transfers
	Energy      units.Energy
	WordsIn     int64
	WordsOut    int64

	// ops is the per-op table, by op ID: each op's placement and its
	// switching-activity state.
	ops []opState

	// Dense per-invocation architectural state, reset by RunASIC.
	scalars []int32   // by interned slot; non-touched slots read as zero
	arrays  [][]int32 // by interned slot; nil for non-array slots
	// deadArrays lists array slots the region references that are not in
	// the touched set: they start each invocation zero-initialized.
	deadArrays []int

	// blockLen is the scheduled latency by block ID: at least 1 for a
	// region block, 0 for any other.
	blockLen []int64

	// MaxBlocksPerInvocation guards against runaway clusters.
	MaxBlocks int64
}

// opState is one op's row of the core's runtime table.
type opState struct {
	placed bool    // scheduled on the datapath or a buffer port (consts and branches are not)
	mem    bool    // runs on a buffer port
	dur    float64 // placement duration in control steps
	// activeE is the energy per active cycle of the datapath resource
	// the op runs on.
	activeE float64
	// prevA and prevB are the operand values the op last saw; they
	// persist across invocations like the datapath's registers do.
	prevA, prevB int32
}

type varSpan struct {
	slot  int // interned dataflow slot
	addr  int32
	words int32
	array bool
}

// NewCore synthesizes the runtime for a bound cluster. The bus and memory
// cores receive the transfer accounting; lay locates every interface
// variable in shared memory.
func NewCore(id int, p *cdfg.Program, r *cdfg.Region, b *Binding, lay *codegen.Layout,
	lib *tech.Library, bs *bus.Bus, m *mem.Memory) (*Core, error) {
	c := &Core{
		ID: id, Region: r, Binding: b,
		prog: p, lay: lay, lib: lib, bus: bs, mem: m,
		microClock: lib.Micro.ClockPeriod,
		MaxBlocks:  200_000_000,
	}
	ix := dataflow.NewIndex(p, r.Func)
	c.ix = ix
	gen, use := dataflow.GenUseOn(ix, r)
	_, useSucc := dataflow.SurroundingsOn(ix, r)
	liveOut := gen.Intersect(useSucc)

	spansOf := func(s dataflow.BitSet) ([]varSpan, error) {
		var spans []varSpan
		var err error
		s.ForEachIndex(func(i int) {
			if err != nil {
				return
			}
			sp, e := c.spanOf(i)
			if e != nil {
				err = e
				return
			}
			spans = append(spans, sp)
		})
		return spans, err
	}
	// Only the live sets are charged as transfers: their word counts.
	wordsOf := func(s dataflow.BitSet) (int, error) {
		spans, err := spansOf(s)
		n := 0
		for _, sp := range spans {
			n += int(sp.words)
		}
		return n, err
	}
	var err error
	if c.inWords, err = wordsOf(use); err != nil {
		return nil, err
	}
	if c.outWords, err = wordsOf(liveOut); err != nil {
		return nil, err
	}
	if c.genAll, err = spansOf(gen); err != nil {
		return nil, err
	}
	// Everything referenced, for functional synchronization. Union in
	// place: gen is not used again below.
	gen.UnionWith(use)
	if c.touched, err = spansOf(gen); err != nil {
		return nil, err
	}
	if c.exitBlock, err = r.Exit(); err != nil {
		return nil, err
	}
	c.buildTables(gen)
	return c, nil
}

// buildTables sizes the dense runtime state. touched is gen ∪ use.
func (c *Core) buildTables(touched dataflow.BitSet) {
	f := c.Region.Func
	c.scalars = make([]int32, c.ix.Len())
	c.arrays = make([][]int32, c.ix.Len())
	for _, sp := range c.touched {
		if sp.array {
			c.arrays[sp.slot] = make([]int32, sp.words)
		}
	}
	maxOp, maxBlock := -1, -1
	for _, bid := range c.Region.Blocks {
		if bid > maxBlock {
			maxBlock = bid
		}
		b := f.Block(bid)
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.ID > maxOp {
				maxOp = op.ID
			}
			// Dead-in arrays (referenced but never synchronized) get a
			// zero-initialized buffer per invocation, like the lazily
			// created map entries used to.
			if op.Arr.Valid() {
				slot := c.ix.IndexOf(dataflow.Key{Global: op.Arr.Global, ID: op.Arr.ID})
				if c.arrays[slot] == nil {
					var v cdfg.Var
					if op.Arr.Global {
						v = c.prog.Globals[op.Arr.ID]
					} else {
						v = f.Locals[op.Arr.ID]
					}
					c.arrays[slot] = make([]int32, v.Len)
					if !touched.ContainsIndex(slot) {
						c.deadArrays = append(c.deadArrays, slot)
					}
				}
			}
		}
	}
	c.ops = make([]opState, maxOp+1)
	c.blockLen = make([]int64, maxBlock+1)
	// The schedule has one block per region block, so every block and op
	// ID below is in range.
	k := 0
	for _, bs := range c.Binding.Schedule.Blocks {
		c.blockLen[bs.Block.ID] = int64(bs.Len)
		for i := range bs.Ops {
			p := &bs.Ops[i]
			pl := c.Binding.PlacementAt(k, p)
			o := &c.ops[p.Op.ID]
			o.placed, o.mem, o.dur = true, pl.Mem, float64(pl.Dur)
			if !pl.Mem {
				o.activeE = float64(c.lib.Resource(pl.Kind).EnergyPerActiveCycle())
			}
			k++
		}
	}
}

func (c *Core) spanOf(slot int) (varSpan, error) {
	k := c.ix.KeyOf(slot)
	var v cdfg.Var
	if k.Global {
		v = c.prog.Globals[k.ID]
	} else {
		v = c.Region.Func.Locals[k.ID]
	}
	addr, words, ok := c.lay.VarAddr(c.prog, c.Region.Func.Name, k.Global, k.ID)
	if !ok {
		return varSpan{}, fmt.Errorf("asic: variable %s of %s has no shared-memory home",
			v.Name, c.Region.Func.Name)
	}
	return varSpan{slot: slot, addr: addr, words: words, array: v.IsArray()}, nil
}

// RunASIC implements iss.ASICHandler: one cluster invocation on the shared
// memory. It returns the µP-clock cycles the system waits.
//
//lint:hotpath guarded by TestRunASICZeroAlloc
func (c *Core) RunASIC(id int32, shared []int32) (int64, error) {
	if int(id) != c.ID {
		return 0, fmt.Errorf("asic: core %d invoked as %d", c.ID, id) //lint:alloc error path, aborts the run
	}
	c.Invocations++

	// Reset the invocation state: non-touched scalars and dead-in arrays
	// read as zero, temporaries start cold.
	for i := range c.scalars {
		c.scalars[i] = 0
	}
	for _, slot := range c.deadArrays {
		buf := c.arrays[slot]
		for i := range buf {
			buf[i] = 0
		}
	}
	// Download phase: functionally sync everything touched; charge the
	// live-in set.
	for _, sp := range c.touched {
		if sp.array {
			copy(c.arrays[sp.slot], shared[sp.addr:sp.addr+sp.words])
		} else {
			c.scalars[sp.slot] = shared[sp.addr]
		}
	}
	var transferStall int64
	c.WordsIn += int64(c.inWords)
	c.bus.Read(c.inWords)
	transferStall += int64(c.mem.Read(c.inWords))

	// Execute the cluster on the datapath.
	cycles, energy, err := c.execute()
	if err != nil {
		return 0, err
	}
	c.CyclesASIC += cycles
	c.Energy += energy

	// Upload phase: write back everything generated; charge the live-out
	// set.
	for _, sp := range c.genAll {
		if sp.array {
			copy(shared[sp.addr:sp.addr+sp.words], c.arrays[sp.slot])
		} else {
			shared[sp.addr] = c.scalars[sp.slot]
		}
	}
	c.WordsOut += int64(c.outWords)
	c.bus.Write(c.outWords)
	transferStall += int64(c.mem.Write(c.outWords))

	// Convert core cycles to system (µP) cycles.
	mups := int64(float64(cycles)*float64(c.Binding.Clock)/float64(c.microClock)) + 1
	total := mups + transferStall
	c.CyclesMuP += total
	return total, nil
}

func (c *Core) readOperand(o cdfg.Operand) int32 {
	if o.IsConst {
		return o.K
	}
	return c.readSlot(o.Ref)
}

func (c *Core) readSlot(r cdfg.VarRef) int32 {
	return c.scalars[c.ix.IndexOf(dataflow.Key{Global: r.Global, ID: r.ID})]
}

func (c *Core) writeSlot(r cdfg.VarRef, v int32) {
	c.scalars[c.ix.IndexOf(dataflow.Key{Global: r.Global, ID: r.ID})] = v
}

// opEnergy charges one datapath operation with activity-scaled switching
// energy: E = E_active_cycle(kind) × dur × (0.25 + 0.75 × toggle rate).
func (c *Core) opEnergy(op *cdfg.Op, a, b int32) units.Energy {
	o := &c.ops[op.ID]
	if !o.placed {
		return 0 // consts, branches: wiring and FSM, charged per cycle
	}
	if o.mem {
		return c.lib.EBufferAccess
	}
	tglA := float64(bits.OnesCount32(uint32(o.prevA^a))) / 32
	tglB := float64(bits.OnesCount32(uint32(o.prevB^b))) / 32
	o.prevA, o.prevB = a, b
	act := 0.25 + 0.75*(tglA+tglB)/2
	return units.Energy(o.dur * act * o.activeE)
}

// execute runs the region's blocks until control leaves for the exit
// block, accounting cycles (scheduled block latencies) and energy.
func (c *Core) execute() (cycles int64, energy units.Energy, err error) {
	f := c.Region.Func
	perCycleOverhead := c.lib.EControllerPerCycle +
		units.Energy(c.Binding.LiveWords)*c.lib.ERegisterPerCycle
	// Residual idle switching of gated instances, precomputed per cycle.
	var idlePerCycle units.Energy
	for _, in := range c.Binding.Instances {
		idlePerCycle += units.Energy(asicIdleFraction) *
			c.lib.Resource(in.Kind).EnergyPerIdleCycle()
	}
	// Active ops displace idle burn; approximating by charging idle on
	// every instance-cycle and activity energy on top stays within a few
	// percent for high-utilization clusters and is conservative.

	blockID := c.Region.Entry
	var blocksRun int64
	for {
		if blockID >= len(c.blockLen) || c.blockLen[blockID] == 0 {
			if blockID != c.exitBlock {
				return 0, 0, fmt.Errorf("asic: control left region %s via unexpected block b%d", //lint:alloc error path, aborts the run
					c.Region.Label, blockID)
			}
			return cycles, energy, nil
		}
		blocksRun++
		if blocksRun > c.MaxBlocks {
			return 0, 0, fmt.Errorf("asic: region %s exceeded %d blocks", c.Region.Label, c.MaxBlocks) //lint:alloc error path, aborts the run
		}
		blen := c.blockLen[blockID]
		cycles += blen
		energy += units.Energy(float64(blen)) * (perCycleOverhead + idlePerCycle)

		b := f.Block(blockID)
		next := -1
		for i := range b.Ops {
			op := &b.Ops[i]
			switch {
			case op.Code == cdfg.Nop:
			case op.Code == cdfg.ConstOp:
				c.writeSlot(op.Dst, op.Imm)
			case op.Code == cdfg.Copy:
				v := c.readOperand(op.A)
				energy += c.opEnergy(op, v, 0)
				c.writeSlot(op.Dst, v)
			case op.Code.IsBinary():
				a := c.readOperand(op.A)
				bv := c.readOperand(op.B)
				energy += c.opEnergy(op, a, bv)
				v, evalErr := behav.EvalBinOp(cdfg.BehavBinOp(op.Code), a, bv)
				if evalErr != nil {
					return 0, 0, fmt.Errorf("asic: %v: %w", op.Pos, evalErr) //lint:alloc error path, aborts the run
				}
				c.writeSlot(op.Dst, v)
			case op.Code == cdfg.Neg || op.Code == cdfg.Not || op.Code == cdfg.LNot:
				a := c.readOperand(op.A)
				energy += c.opEnergy(op, a, 0)
				var v int32
				switch op.Code {
				case cdfg.Neg:
					v = -a
				case cdfg.Not:
					v = ^a
				default:
					if a == 0 {
						v = 1
					}
				}
				c.writeSlot(op.Dst, v)
			case op.Code == cdfg.Load:
				idx := c.readOperand(op.A)
				arr := c.arrayOf(op.Arr)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, 0, fmt.Errorf("asic: %v: index %d out of range [0,%d)", op.Pos, idx, len(arr)) //lint:alloc error path, aborts the run
				}
				energy += c.opEnergy(op, idx, 0)
				c.writeSlot(op.Dst, arr[idx])
			case op.Code == cdfg.Store:
				idx := c.readOperand(op.A)
				val := c.readOperand(op.B)
				arr := c.arrayOf(op.Arr)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, 0, fmt.Errorf("asic: %v: index %d out of range [0,%d)", op.Pos, idx, len(arr)) //lint:alloc error path, aborts the run
				}
				energy += c.opEnergy(op, idx, val)
				arr[idx] = val
			case op.Code == cdfg.Br:
				next = op.Target
			case op.Code == cdfg.CBr:
				v := c.readOperand(op.A)
				if v != 0 {
					next = op.Then
				} else {
					next = op.Else
				}
			default:
				return 0, 0, fmt.Errorf("asic: op %v cannot execute on an ASIC core", op.Code) //lint:alloc error path, aborts the run
			}
		}
		if next == -1 {
			return 0, 0, fmt.Errorf("asic: block b%d fell through", blockID) //lint:alloc error path, aborts the run
		}
		blockID = next
	}
}

// arrayOf returns the core-local buffer of an array (preallocated for
// every array the region references).
func (c *Core) arrayOf(a cdfg.ArrRef) []int32 {
	return c.arrays[c.ix.IndexOf(dataflow.Key{Global: a.Global, ID: a.ID})]
}
