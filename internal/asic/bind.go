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
	// PlacementOf maps op IDs to their binding.
	PlacementOf map[int]Placement
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
	// BlockLen maps block IDs to their control-step count, for the
	// runtime replay.
	BlockLen map[int]int
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

// Bind runs the Fig. 4 algorithm over a scheduled cluster. blockFreq
// returns the profiled execution count of a basic block (#ex_times); the
// library supplies per-resource GEQ, power and cycle time.
func Bind(rsched *sched.RegionSchedule, lib *tech.Library, blockFreq func(blockID int) int64) (*Binding, error) {
	if rsched == nil || lib == nil {
		return nil, fmt.Errorf("asic: Bind requires a schedule and a library")
	}
	b := &Binding{
		Schedule:    rsched,
		PlacementOf: make(map[int]Placement),
		BlockLen:    make(map[int]int),
	}
	// busy[instanceIdx][globalStep] marks occupancy; instances are
	// created on demand (Fig. 4 lines 9-13: reuse an already-instantiated
	// instance free at this step, else instantiate — the scheduler
	// guarantees a kind-level budget, so instance count never exceeds it).
	busy := []map[int]bool{}
	instOf := make(map[tech.ResourceKind][]int) // kind -> instance indices

	base := 0
	for _, bs := range rsched.Blocks {
		freq := blockFreq(bs.Block.ID)
		b.BlockLen[bs.Block.ID] = bs.Len
		b.NcycWeighted += int64(bs.Len) * freq
		b.Steps += bs.Len
		// Deterministic order: by start step, then op ID.
		ops := make([]sched.PlacedOp, len(bs.Ops))
		copy(ops, bs.Ops)
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Start != ops[j].Start {
				return ops[i].Start < ops[j].Start
			}
			return ops[i].Op.ID < ops[j].Op.ID
		})
		for _, p := range ops {
			if p.Mem {
				b.PlacementOf[p.Op.ID] = Placement{Mem: true, Dur: p.Dur}
				continue
			}
			lo, hi := base+p.Start, base+p.End()
			chosen := -1
			for _, ii := range instOf[p.Kind] {
				free := true
				for s := lo; s < hi; s++ {
					if busy[ii][s] {
						free = false
						break
					}
				}
				if free {
					chosen = ii
					break
				}
			}
			if chosen == -1 {
				chosen = len(b.Instances)
				b.Instances = append(b.Instances, Instance{Kind: p.Kind, Index: len(instOf[p.Kind])})
				busy = append(busy, make(map[int]bool))
				instOf[p.Kind] = append(instOf[p.Kind], chosen)
			}
			for s := lo; s < hi; s++ {
				busy[chosen][s] = true
			}
			b.Instances[chosen].ActiveWeighted += int64(p.Dur) * freq
			b.PlacementOf[p.Op.ID] = Placement{Kind: p.Kind, Instance: chosen, Dur: p.Dur}
		}
		base += bs.Len
	}

	// Fig. 4 lines 16-18: hardware effort of the bound datapath.
	for _, in := range b.Instances {
		b.GEQDatapath += lib.Resource(in.Kind).GEQ
	}
	b.GEQController = lib.ControllerGEQPerStep * b.Steps
	b.LiveWords = countLiveWords(rsched, len(b.Instances))
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

// countLiveWords estimates the datapath register need: every named scalar
// the cluster touches holds state across control steps, while compiler
// temporaries live only within one block and are register-shared after
// scheduling — their physical need is bounded by the datapath's
// parallelism (roughly two in-flight values per instance plus pipeline
// margin), not by their count.
func countLiveWords(rsched *sched.RegionSchedule, instances int) int {
	type key struct {
		g  bool
		id int
	}
	named := make(map[key]bool)
	temps := make(map[key]bool)
	f := rsched.Region.Func
	classify := func(r cdfg.VarRef) {
		k := key{r.Global, r.ID}
		if !r.Global && f.Locals[r.ID].Temp {
			temps[k] = true
		} else {
			named[k] = true
		}
	}
	var uses []cdfg.VarRef
	for _, op := range rsched.Region.Ops() {
		uses = op.AppendUses(uses[:0])
		for _, u := range uses {
			classify(u)
		}
		if d := op.Def(); d.Valid() {
			classify(d)
		}
	}
	tempRegs := 2*instances + 4
	if len(temps) < tempRegs {
		tempRegs = len(temps)
	}
	return len(named) + tempRegs
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
