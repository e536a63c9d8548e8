// Package asic models the application-specific core that a selected
// cluster is synthesized into. It implements the paper's Fig. 4 algorithm
// — binding the scheduled operations to resource *instances*, computing
// the hardware effort GEQ_RS and the utilization rate U_R^core — plus the
// gate-level-style energy estimation of Fig. 1 line 15: a cycle-accurate
// replay of the cluster on the bound datapath with switching activity
// derived from live operand values (Hamming distance between consecutive
// executions).
//
// Hardware-effort accounting: the datapath GEQ is Fig. 4's GEQ_RS; on top
// the core pays a controller FSM (per control step) and a register file
// (per live word). Cluster data buffers are carved from the system's
// existing memory core (the shared memory of Fig. 2a), so they add buffer
// access energy but no cells to the "additional hardware" the paper
// bounds at 16k cells.
package asic

import (
	"fmt"
	"math"
	"sort"

	"lppart/internal/cdfg"
	"lppart/internal/sched"
	"lppart/internal/scratch"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// asicIdleFraction is the residual switching of clock-gated idle resources
// in the synthesized core. A custom core's FSM knows exactly when each
// unit is needed, so gating is near-perfect but the clock tree still
// burns a little.
const asicIdleFraction = 0.12

// minClock is the floor on the ASIC cycle time (controller limited) when
// no datapath resource is instantiated.
const minClock = 20 * units.NanoSecond

// Instance is one bound resource instance of the datapath.
type Instance struct {
	Kind  tech.ResourceKind
	Index int // instance number within the kind
	// ActiveWeighted is the profile-weighted count of cycles this
	// instance is actively used (Fig. 4's util[rs][is], i.e.
	// #ex_cycs × #ex_times summed over control steps).
	ActiveWeighted int64
}

// Placement locates one operation on the datapath.
type Placement struct {
	Kind     tech.ResourceKind
	Instance int // index into Binding.Instances
	Dur      int
	Mem      bool // executes on a buffer port, not a datapath instance
}

// Binding is the synthesized datapath of a cluster: Fig. 4's outputs.
type Binding struct {
	Schedule *sched.RegionSchedule
	// Instances lists the instantiated resources in creation order.
	Instances []Instance
	// OpInst is Fig. 4's op-to-instance binding, aligned with the
	// schedule: entry k belongs to the k-th op of Schedule.Blocks[0].Ops,
	// Schedule.Blocks[1].Ops, ... in order, and holds its index into
	// Instances, or -1 for a memory op (buffer port). Kind, Dur and Mem
	// live on the sched.PlacedOp itself; PlacementAt combines the two.
	OpInst []int32
	// NcycWeighted is the profile-weighted total cluster cycles
	// (Fig. 4's N_cyc^c over the whole application run).
	NcycWeighted int64
	// Steps is the total control-step count (FSM states).
	Steps int
	// URate is U_R^core per Eq. 4 / Fig. 4 line 24.
	URate float64
	// LiveWords is the number of scalar values the datapath must
	// register (cluster-local scalars and temporaries).
	LiveWords int
	// GEQ breakdown.
	GEQDatapath, GEQController, GEQRegisters int
	// Clock is the core's cycle time: the slowest instantiated resource.
	Clock units.Time
}

// PlacementAt returns where scheduled op p executes; k is p's position in
// schedule order (see OpInst).
func (b *Binding) PlacementAt(k int, p *sched.PlacedOp) Placement {
	if p.Mem {
		return Placement{Mem: true, Dur: p.Dur}
	}
	return Placement{Kind: p.Kind, Instance: int(b.OpInst[k]), Dur: p.Dur}
}

// GEQTotal is the core's total hardware effort in gate equivalents
// ("cells"): the quantity the paper bounds at "less than 16k cells".
func (b *Binding) GEQTotal() int { return b.GEQDatapath + b.GEQController + b.GEQRegisters }

// InstanceCount returns the number of instances of a kind.
func (b *Binding) InstanceCount(k tech.ResourceKind) int {
	n := 0
	for _, in := range b.Instances {
		if in.Kind == k {
			n++
		}
	}
	return n
}

// bindScratch is Bind's per-call working state, recycled through
// bindScratches so a warm Bind allocates only its results.
type bindScratch struct {
	// ops and order hold the block being bound and its op positions in
	// (Start, Op.ID) order; *bindScratch sorts order without allocating.
	ops   []sched.PlacedOp
	order []int32
	// instOf lists each kind's instance indices in creation order.
	instOf [tech.NumResourceKinds][]int32
	// freeAt is, per instance, the first global step after its latest op.
	freeAt []int
	insts  []Instance
	// countLiveWords' visited sets, one bit per global / local ID.
	seenGlobal, seenLocal []uint64
	uses                  []cdfg.VarRef
}

var bindScratches = scratch.Pool[bindScratch]{New: func() *bindScratch { return new(bindScratch) }}

func (s *bindScratch) Len() int      { return len(s.order) }
func (s *bindScratch) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *bindScratch) Less(i, j int) bool {
	a, b := &s.ops[s.order[i]], &s.ops[s.order[j]]
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Op.ID < b.Op.ID
}

// Bind runs the Fig. 4 algorithm over a scheduled cluster. blockFreq
// returns the profiled execution count of a basic block (#ex_times); the
// library supplies per-resource GEQ, power and cycle time.
//
// Fig. 4 lines 9-13 bind first-fit: an op reuses the first instance of
// its kind free over its control steps, else instantiates a new one (the
// scheduler guarantees a kind-level budget, so the instance count never
// exceeds it). Ops are visited block by block, each block's by (Start,
// Op.ID), over one global step numbering (block latencies concatenated).
// That visit order is nondecreasing in global start step and every op
// ends within its block, so a new op overlaps an earlier op on the same
// instance exactly when that op ends after the new op starts: one free-at
// step per instance decides occupancy. A zero-duration op occupies no
// step and fits the kind's first instance.
//
//lint:hotpath guarded by TestBindZeroAllocScratch
func Bind(rsched *sched.RegionSchedule, lib *tech.Library, blockFreq func(blockID int) int64) (*Binding, error) {
	if rsched == nil || lib == nil {
		return nil, fmt.Errorf("asic: Bind requires a schedule and a library") //lint:alloc error path
	}
	nOps := 0
	for _, bs := range rsched.Blocks {
		nOps += len(bs.Ops)
	}
	b := &Binding{Schedule: rsched} //lint:alloc the returned binding
	b.OpInst = make([]int32, nOps)  //lint:alloc result, owned by the returned binding
	s := bindScratches.Get()
	defer bindScratches.Put(s)
	s.reset()

	base, k := 0, 0
	for _, bs := range rsched.Blocks {
		freq := blockFreq(bs.Block.ID)
		b.NcycWeighted += int64(bs.Len) * freq
		b.Steps += bs.Len
		s.sortBlock(bs.Ops)
		for _, i := range s.order {
			p := &bs.Ops[i]
			if p.Mem {
				b.OpInst[k+int(i)] = -1
				continue
			}
			lo, hi := base+p.Start, base+p.End()
			chosen := int32(-1)
			for _, ii := range s.instOf[p.Kind] {
				if lo == hi || s.freeAt[ii] <= lo {
					chosen = ii
					break
				}
			}
			if chosen == -1 {
				chosen = int32(len(s.insts))
				s.insts = append(s.insts, Instance{Kind: p.Kind, Index: len(s.instOf[p.Kind])})
				s.freeAt = append(s.freeAt, 0)
				s.instOf[p.Kind] = append(s.instOf[p.Kind], chosen)
			}
			if hi > lo {
				s.freeAt[chosen] = hi
			}
			s.insts[chosen].ActiveWeighted += int64(p.Dur) * freq
			b.OpInst[k+int(i)] = chosen
		}
		base += bs.Len
		k += len(bs.Ops)
	}
	s.ops = nil
	if len(s.insts) > 0 {
		b.Instances = make([]Instance, len(s.insts)) //lint:alloc result, copied out of the scratch at exact size
		copy(b.Instances, s.insts)
	}

	// Fig. 4 lines 16-18: hardware effort of the bound datapath.
	for _, in := range b.Instances {
		b.GEQDatapath += lib.Resource(in.Kind).GEQ
	}
	b.GEQController = lib.ControllerGEQPerStep * b.Steps
	b.LiveWords = s.countLiveWords(rsched, len(b.Instances))
	b.GEQRegisters = lib.RegisterGEQPerWord * b.LiveWords

	// Fig. 4 line 24: U_R = mean per-instance utilization over the
	// cluster's weighted cycles.
	if b.NcycWeighted > 0 && len(b.Instances) > 0 {
		sum := 0.0
		for _, in := range b.Instances {
			sum += float64(in.ActiveWeighted) / float64(b.NcycWeighted)
		}
		b.URate = sum / float64(len(b.Instances))
	}

	// Core clock: slowest instantiated resource plus the interconnect and
	// control-path delay of the synthesized netlist, which grows with the
	// core's size (see tech.Library.WireDelayPerLog2). This is what can
	// make a large serial core *slower* than the µP while still being far
	// more energy-efficient — the paper's "trick" case.
	b.Clock = minClock
	for _, in := range b.Instances {
		if t := lib.Resource(in.Kind).Tcyc; t > b.Clock {
			b.Clock = t
		}
	}
	if lib.WireDelayPerLog2 > 0 && lib.WireGEQRef > 0 {
		b.Clock += lib.WireDelayPerLog2 *
			units.Time(math.Log2(1+float64(b.GEQTotal())/float64(lib.WireGEQRef)))
	}
	return b, nil
}

// reset empties the scratch for a new Bind call, keeping its slabs.
func (s *bindScratch) reset() {
	for k := range s.instOf {
		s.instOf[k] = s.instOf[k][:0]
	}
	s.freeAt = s.freeAt[:0]
	s.insts = s.insts[:0]
}

// sortBlock fills s.order with the positions of ops in (Start, Op.ID)
// order.
func (s *bindScratch) sortBlock(ops []sched.PlacedOp) {
	s.ops = ops
	s.order = s.order[:0]
	for i := range ops {
		s.order = append(s.order, int32(i)) //lint:alloc slab growth to the largest block, then reused
	}
	sort.Sort(s)
}

// countLiveWords estimates the datapath register need: every named scalar
// the cluster touches holds state across control steps, while compiler
// temporaries live only within one block and are register-shared after
// scheduling — their physical need is bounded by the datapath's
// parallelism (roughly two in-flight values per instance plus pipeline
// margin), not by their count.
func (s *bindScratch) countLiveWords(rsched *sched.RegionSchedule, instances int) int {
	f := rsched.Region.Func
	clear(s.seenGlobal)
	clear(s.seenLocal)
	named, temps := 0, 0
	classify := func(r cdfg.VarRef) {
		switch {
		case r.Global:
			if !testAndSet(&s.seenGlobal, r.ID) {
				named++
			}
		case !testAndSet(&s.seenLocal, r.ID):
			if f.Locals[r.ID].Temp {
				temps++
			} else {
				named++
			}
		}
	}
	for _, bid := range rsched.Region.Blocks {
		blk := f.Block(bid)
		for i := range blk.Ops {
			op := &blk.Ops[i]
			s.uses = op.AppendUses(s.uses[:0])
			for _, u := range s.uses {
				classify(u)
			}
			if d := op.Def(); d.Valid() {
				classify(d)
			}
		}
	}
	tempRegs := 2*instances + 4
	if temps < tempRegs {
		tempRegs = temps
	}
	return named + tempRegs
}

// testAndSet sets bit i of *bits, growing the set as needed, and reports
// whether the bit was already set.
func testAndSet(bits *[]uint64, i int) bool {
	w := i / 64
	if w >= len(*bits) {
		*bits = append(*bits, make([]uint64, w+1-len(*bits))...) //lint:alloc slab growth to the largest namespace, then reused
	}
	m := uint64(1) << (i % 64)
	was := (*bits)[w]&m != 0
	(*bits)[w] |= m
	return was
}

// EnergySelectionEstimate is the quick, utilization-based energy estimate
// the partitioning loop ranks candidates with (Fig. 1 line 11:
// E_R = U_R · Σ P_av · N_cyc · T_cyc, refined here with the residual
// idle-switching of gated-off instances and the controller/register
// overhead).
func (b *Binding) EnergySelectionEstimate(lib *tech.Library) units.Energy {
	var e units.Energy
	for _, in := range b.Instances {
		r := lib.Resource(in.Kind)
		active := in.ActiveWeighted
		idle := b.NcycWeighted - active
		if idle < 0 {
			idle = 0
		}
		e += units.Energy(float64(active)) * r.EnergyPerActiveCycle()
		e += units.Energy(float64(idle)*asicIdleFraction) * r.EnergyPerIdleCycle()
	}
	overhead := lib.EControllerPerCycle + units.Energy(b.LiveWords)*lib.ERegisterPerCycle
	e += units.Energy(float64(b.NcycWeighted)) * overhead
	return e
}
