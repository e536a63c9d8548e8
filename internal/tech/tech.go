// Package tech models the technology library the paper builds on: a
// CMOS6-style 0.8µ gate library with per-resource gate equivalents (GEQ),
// average power and cycle time; a Tiwari-style instruction-level energy
// table for the SPARCLite-like µP core; and per-access energy parameters
// for caches, main memory and the shared bus.
//
// The paper derives these numbers from NEC's proprietary CMOS6 library and
// from physical current measurements; we substitute a self-consistent set
// of constants calibrated to published 0.8µ/5V-era figures (see DESIGN.md).
// Everything downstream depends only on the *relative* magnitudes: ASIC
// datapath resources dissipate on the order of 0.1–1 nJ per active cycle,
// while a full µP core dissipates 2–15 nJ per instruction, which is exactly
// the gap the paper's partitioning exploits.
package tech

import (
	"fmt"

	"lppart/internal/units"
)

// ResourceKind identifies a datapath resource type ("module type" in the
// paper's Fig. 4, where a resource type rs_π can have several instances).
type ResourceKind int

// The resource types of the library. The ordering is significant for
// Fig. 4's Sorted_RS_List: smaller kinds are cheaper, and the sorted list
// prefers the smallest capable resource.
const (
	Comparator ResourceKind = iota // relational/equality unit
	ALU                            // 32-bit add/sub/logic unit
	Shifter                        // 32-bit barrel shifter
	Multiplier                     // 32x32 multiplier
	Divider                        // 32-bit sequential divider
	NumResourceKinds
)

var resourceKindNames = [NumResourceKinds]string{
	Comparator: "CMP",
	ALU:        "ALU",
	Shifter:    "SHIFT",
	Multiplier: "MUL",
	Divider:    "DIV",
}

// String returns the short mnemonic of the resource kind.
func (k ResourceKind) String() string {
	if k < 0 || k >= NumResourceKinds {
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
	return resourceKindNames[k]
}

// OpClass classifies the operations that appear in a behavioral
// description. The scheduler and the utilization-rate algorithm reason in
// terms of OpClass; internal/cdfg maps its IR opcodes onto these classes.
type OpClass int

// Operation classes.
const (
	OpAddSub   OpClass = iota // +, - and integer negate
	OpLogic                   // and, or, xor, not
	OpShift                   // shl, shr (logical/arithmetic)
	OpMul                     // multiply (both operands variable)
	OpConstMul                // multiply by a compile-time constant (shift-add tree)
	OpDivRem                  // divide, remainder
	OpCompare                 // relational operators
	OpMove                    // register-to-register copies
	OpMemory                  // loads/stores (handled by memory ports, not RS)
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	OpAddSub:   "addsub",
	OpLogic:    "logic",
	OpShift:    "shift",
	OpMul:      "mul",
	OpConstMul: "cmul",
	OpDivRem:   "divrem",
	OpCompare:  "cmp",
	OpMove:     "move",
	OpMemory:   "mem",
}

// String returns the class mnemonic.
func (c OpClass) String() string {
	if c < 0 || c >= NumOpClasses {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opClassNames[c]
}

// Resource describes one resource type of the gate library: its hardware
// effort in gate equivalents (the paper's GEQ(rs_π), also the "cells" of
// the 16k-cell overhead bound), its average power draw while active
// (P_av^rs_i in Eq. 2) and its minimum cycle time (T_cyc^rs_i, Fig. 1
// line 11).
type Resource struct {
	Kind ResourceKind
	Name string
	// GEQ is the gate-equivalent count (≈ cells) of one instance.
	GEQ int
	// PavActive is the average power drawn while the resource is
	// actively computing.
	PavActive units.Power
	// PavIdle is the power drawn when the resource is clocked but not
	// actively used ("the circuits are not actively used", §3.1). In a
	// non-clock-gated design this is a large fraction of PavActive.
	PavIdle units.Power
	// Tcyc is the minimum cycle time the resource can run at.
	Tcyc units.Time
	// Cycles maps each operation class this resource can execute to the
	// number of cycles one operation takes. Absent classes cannot run
	// on this resource.
	Cycles map[OpClass]int
}

// CanExecute reports whether the resource can execute the operation class.
func (r *Resource) CanExecute(c OpClass) bool {
	_, ok := r.Cycles[c]
	return ok
}

// OpCycles returns the cycle count for one operation of class c, or 0 when
// the resource cannot execute it.
func (r *Resource) OpCycles(c OpClass) int { return r.Cycles[c] }

// EnergyPerActiveCycle is the energy one active cycle dissipates.
func (r *Resource) EnergyPerActiveCycle() units.Energy {
	return units.EnergyOf(r.PavActive, r.Tcyc)
}

// EnergyPerIdleCycle is the energy one idle (clocked, non-gated) cycle
// dissipates — the source of E_non_act_used in Eq. 2.
func (r *Resource) EnergyPerIdleCycle() units.Energy {
	return units.EnergyOf(r.PavIdle, r.Tcyc)
}

// ResourceSet is one designer-supplied hardware budget for an ASIC core:
// the maximum number of instances of each resource kind ("the designer
// tells the partitioning algorithm how much hardware (#ALUs, #multipliers,
// #shifters, …) they are willing to spend", §3.2). A zero entry means the
// kind is unavailable.
type ResourceSet struct {
	Name string
	Max  [NumResourceKinds]int
}

// Limit returns the instance budget for kind k.
func (s *ResourceSet) Limit(k ResourceKind) int {
	if k < 0 || k >= NumResourceKinds {
		return 0
	}
	return s.Max[k]
}

// TotalGEQ returns the gate-equivalent cost of instantiating the whole set
// in library lib (an upper bound; Fig. 4 only pays for instances actually
// bound).
func (s *ResourceSet) TotalGEQ(lib *Library) int {
	total := 0
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		total += s.Max[k] * lib.Resource(k).GEQ
	}
	return total
}

// String renders the set as e.g. "rs-std{ALU:2 MUL:1 SHIFT:1}".
func (s *ResourceSet) String() string {
	out := s.Name + "{"
	first := true
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		if s.Max[k] == 0 {
			continue
		}
		if !first {
			out += " "
		}
		out += fmt.Sprintf("%v:%d", k, s.Max[k])
		first = false
	}
	return out + "}"
}

// InstrClass groups µP instructions for the Tiwari-style energy table
// ([12]: base cost per instruction plus a circuit-state overhead between
// consecutive instructions of different classes).
type InstrClass int

// Instruction classes of the µP energy model.
const (
	IClassALU    InstrClass = iota // add/sub/logic/compare
	IClassShift                    // shift instructions
	IClassMul                      // multiply (multi-cycle)
	IClassDiv                      // divide/remainder (multi-cycle)
	IClassLoad                     // memory load
	IClassStore                    // memory store
	IClassBranch                   // conditional and unconditional branches
	IClassMove                     // register moves and immediates
	IClassCall                     // call/return
	IClassNop                      // pipeline bubbles
	NumInstrClasses
)

var instrClassNames = [NumInstrClasses]string{
	IClassALU:    "alu",
	IClassShift:  "shift",
	IClassMul:    "mul",
	IClassDiv:    "div",
	IClassLoad:   "load",
	IClassStore:  "store",
	IClassBranch: "branch",
	IClassMove:   "move",
	IClassCall:   "call",
	IClassNop:    "nop",
}

// String returns the class mnemonic.
func (c InstrClass) String() string {
	if c < 0 || c >= NumInstrClasses {
		return fmt.Sprintf("InstrClass(%d)", int(c))
	}
	return instrClassNames[c]
}

// MicroprocessorSpec describes the µP core: clock, per-instruction-class
// energy (base cost) and cycle counts, the inter-class circuit-state
// overhead, and the core's internal resource inventory used to compute the
// µP-side utilization rate U_µP (Eq. 1/4). The reference configuration
// models a SPARCLite-class 0.8µ embedded RISC without gated clocks
// (§3.1: "this is actually the case for most of today's processors
// deployed in embedded systems. An example is the LSI SPARCLite").
type MicroprocessorSpec struct {
	Name        string
	ClockPeriod units.Time
	// BaseEnergy is the Tiwari base energy of one instruction of each
	// class (whole-core switching energy for the instruction's duration).
	BaseEnergy [NumInstrClasses]units.Energy
	// CSOverhead is the circuit-state overhead added when an instruction
	// of class i is followed by one of class j (i != j).
	CSOverhead [NumInstrClasses][NumInstrClasses]units.Energy
	// CyclesFor is the latency in cycles of each instruction class
	// (cache-hit case; miss penalties come from the memory system).
	CyclesFor [NumInstrClasses]int
	// Uses records which internal core resources an instruction class
	// actively uses; it drives the Eq. 1 utilization bookkeeping that
	// U_µP is computed from.
	Uses [NumInstrClasses][]ResourceKind
	// CoreResources is the core's internal resource inventory (the RS of
	// Eq. 2/4 for the µP core).
	CoreResources [NumResourceKinds]int
	// GatedClocks, when true, models a core that shuts down unused
	// resources cycle-by-cycle (§3.1 footnote); used by ablation A5.
	GatedClocks bool
}

// InstrEnergy returns the energy of executing one instruction of class c
// when the previous instruction had class prev (pass c itself, or any
// equal class, for no overhead).
func (m *MicroprocessorSpec) InstrEnergy(prev, c InstrClass) units.Energy {
	e := m.BaseEnergy[c]
	if prev != c {
		e += m.CSOverhead[prev][c]
	}
	return e
}

// Gated returns a copy of the spec modeling a core WITH gated clocks
// (ablation A5; §3.1 footnote 4 notes most embedded cores of the era,
// like the LSI SPARCLite, lack them). Per instruction class, the idle
// switching of every core resource the class does not actively use is
// removed from the base energy — exactly the "wasted energy" of Eq. 2.
func (m *MicroprocessorSpec) Gated(lib *Library) MicroprocessorSpec {
	g := *m
	g.Name = m.Name + "-gated"
	g.GatedClocks = true
	for c := InstrClass(0); c < NumInstrClasses; c++ {
		used := make(map[ResourceKind]bool)
		for _, k := range m.Uses[c] {
			used[k] = true
		}
		var idle units.Energy
		for k := ResourceKind(0); k < NumResourceKinds; k++ {
			if m.CoreResources[k] == 0 || used[k] {
				continue
			}
			idle += units.EnergyOf(lib.Resource(k).PavIdle, m.ClockPeriod) *
				units.Energy(m.CoreResources[k])
		}
		saved := idle * units.Energy(m.CyclesFor[c])
		if saved >= m.BaseEnergy[c] {
			saved = m.BaseEnergy[c] * 8 / 10 // gating can't erase an instruction
		}
		g.BaseEnergy[c] = m.BaseEnergy[c] - saved
	}
	return g
}

// CacheTech holds the analytical per-component energies of a 0.8µ SRAM
// cache access (Kamble/Ghose-style model, collapsed to the terms that vary
// with geometry). internal/cache combines them with a concrete geometry.
type CacheTech struct {
	// EDecodePerSetLog2 is the row-decoder energy per log2(sets).
	EDecodePerSetLog2 units.Energy
	// ETagBit is the tag-array energy per tag bit read/compared per way.
	ETagBit units.Energy
	// EDataBit is the data-array energy per data bit driven per access.
	EDataBit units.Energy
	// EOutputPerWord is the output-driver energy per 32-bit word
	// delivered to the core.
	EOutputPerWord units.Energy
}

// MemoryTech holds the main-memory (embedded DRAM/off-chip SRAM core)
// access energies and latency.
type MemoryTech struct {
	EReadWord  units.Energy // energy of reading one 32-bit word
	EWriteWord units.Energy // energy of writing one 32-bit word
	// LatencyCycles is the µP-clock latency of one memory word access
	// (miss penalty per word).
	LatencyCycles int
}

// BusTech holds the shared-bus transfer energies of the paper's Fig. 2a
// architecture (E_bus read/write in Fig. 3 step 5; "read and write
// operations imply different amounts of energy").
type BusTech struct {
	EReadWord  units.Energy // µP/ASIC reading one word over the bus
	EWriteWord units.Energy // µP/ASIC writing one word over the bus
}

// Library bundles the whole technology description. A Library is treated
// as immutable once built and is therefore safe to share across the
// concurrent evaluations of the exploration engine; configurations that
// rewrite part of it (e.g. the A5 ablation's Micro = Micro.Gated(lib))
// must build their own copy via Default() rather than mutate a shared one.
type Library struct {
	Name      string
	resources [NumResourceKinds]Resource
	Micro     MicroprocessorSpec
	Cache     CacheTech
	Memory    MemoryTech
	Bus       BusTech
	// ControllerGEQPerStep is the FSM/controller hardware effort added
	// per control step when synthesizing an ASIC core.
	ControllerGEQPerStep int
	// RegisterGEQPerWord is the storage hardware effort per live 32-bit
	// value the ASIC datapath must hold.
	RegisterGEQPerWord int
	// ERegisterPerCycle is the energy of one ASIC register word being
	// clocked for one cycle.
	ERegisterPerCycle units.Energy
	// EControllerPerCycle is the controller energy per ASIC cycle.
	EControllerPerCycle units.Energy
	// EBufferAccess is the energy of one word access to an ASIC core's
	// local data buffer (a small scratchpad carved from the system's
	// memory core, far cheaper than a main-memory access).
	EBufferAccess units.Energy
	// WireDelayPerLog2 and WireGEQRef model the interconnect/control-path
	// delay of a synthesized core: its cycle time is the slowest
	// resource's Tcyc plus WireDelayPerLog2 · log2(1 + GEQ/WireGEQRef).
	// Large cores (big FSMs, many instances, wide muxing) clock slower
	// than a hand-tuned µP — the effect behind the paper's "trick"
	// application, whose partitioned design saves ~95% energy but runs
	// markedly slower.
	WireDelayPerLog2 units.Time
	WireGEQRef       int

	// executors caches the per-class capable-resource lists served by
	// Executors. buildDefault fills it after the resource table is final;
	// keeping it a plain value field (not a sync.Once) keeps the struct
	// copyable and its AppendKey encoding — which the measurement memo
	// fingerprints — independent of call order.
	executors [NumOpClasses][]ResourceKind
}

// Resource returns the library's descriptor for kind k. The returned
// pointer aliases the library; callers must not mutate it.
func (l *Library) Resource(k ResourceKind) *Resource {
	if k < 0 || k >= NumResourceKinds {
		panic(fmt.Sprintf("tech: invalid resource kind %d", int(k))) //lint:alloc panic path
	}
	return &l.resources[k]
}

// Executors returns the resource kinds able to execute op class c, sorted
// by increasing size (GEQ) — exactly the order Fig. 4's Sorted_RS_List
// wants ("sorted according to the increasing size of a resource" so "the
// first resource means the smallest and therefore the most energy
// efficient one").
//
// The lists are computed once per library and cached: the scheduler asks
// for them on every op placement, deep inside the partitioning loop. The
// returned slice aliases the cache; callers must not mutate it.
func (l *Library) Executors(c OpClass) []ResourceKind {
	return l.executors[c]
}

// buildExecutors fills the per-class executor lists. Resources are fixed
// after construction, so Default derives the lists once as its last step.
func (l *Library) buildExecutors() {
	for c := OpClass(0); c < NumOpClasses; c++ {
		var kinds []ResourceKind
		for k := ResourceKind(0); k < NumResourceKinds; k++ {
			if l.resources[k].CanExecute(c) {
				kinds = append(kinds, k)
			}
		}
		// Insertion sort by GEQ; the list is at most NumResourceKinds long.
		for i := 1; i < len(kinds); i++ {
			for j := i; j > 0 && l.resources[kinds[j]].GEQ < l.resources[kinds[j-1]].GEQ; j-- {
				kinds[j], kinds[j-1] = kinds[j-1], kinds[j]
			}
		}
		l.executors[c] = kinds
	}
}

// defaultLib is the reference library, built once.
var defaultLib = buildDefault()

// Default returns a copy of the reference CMOS6-style 0.8µ/5V technology
// library. The copy is the caller's: editing its fields (the A5 ablation
// replaces Micro) leaves the next Default unchanged. It shares the
// reference's read-only tables — the resources' op-cycle maps, Micro.Uses
// and the executor lists — which no caller may mutate.
func Default() *Library {
	lib := *defaultLib
	return &lib
}

// buildDefault builds the reference library. All constants are
// documented inline; they are self-consistent rather than copied from
// the (unpublished) NEC library.
func buildDefault() *Library {
	lib := &Library{
		Name: "cmos6-0.8u",
		// A small FSM row per control step: state register bits plus
		// next-state and output logic.
		ControllerGEQPerStep: 14,
		RegisterGEQPerWord:   120, // 32 flip-flops, amortized mux/drive after register sharing
		// Holding registers only load the clock; value switching is
		// charged by the writing operation's activity energy.
		ERegisterPerCycle:   0.004 * units.NanoJoule,
		EControllerPerCycle: 0.05 * units.NanoJoule,
		EBufferAccess:       0.4 * units.NanoJoule,
		WireDelayPerLog2:    4 * units.NanoSecond,
		WireGEQRef:          250,
	}

	lib.resources[Comparator] = Resource{
		Kind:      Comparator,
		Name:      "cmp32",
		GEQ:       310,
		PavActive: 4.0 * units.MilliWatt,
		PavIdle:   2.5 * units.MilliWatt,
		Tcyc:      18 * units.NanoSecond,
		Cycles:    map[OpClass]int{OpCompare: 1},
	}
	lib.resources[ALU] = Resource{
		Kind:      ALU,
		Name:      "alu32",
		GEQ:       1250,
		PavActive: 15 * units.MilliWatt,
		PavIdle:   9 * units.MilliWatt,
		Tcyc:      22 * units.NanoSecond,
		// An ALU also evaluates comparisons (subtract + flags), passes
		// values through (move), and multiplies by synthesis-time
		// constants via canonical-signed-digit shift-add trees (2 cycles).
		Cycles: map[OpClass]int{OpAddSub: 1, OpLogic: 1, OpCompare: 1, OpMove: 1, OpConstMul: 2},
	}
	lib.resources[Shifter] = Resource{
		Kind:      Shifter,
		Name:      "bshift32",
		GEQ:       980,
		PavActive: 11 * units.MilliWatt,
		PavIdle:   6.5 * units.MilliWatt,
		Tcyc:      16 * units.NanoSecond,
		Cycles:    map[OpClass]int{OpShift: 1, OpMove: 1},
	}
	lib.resources[Multiplier] = Resource{
		Kind:      Multiplier,
		Name:      "mul32x32",
		GEQ:       7900,
		PavActive: 80 * units.MilliWatt,
		PavIdle:   45 * units.MilliWatt,
		Tcyc:      40 * units.NanoSecond,
		Cycles:    map[OpClass]int{OpMul: 2, OpConstMul: 1},
	}
	// A compact non-restoring serial divider: one quotient bit per cycle
	// plus correction. Far slower per operation than the µP's hardware-
	// assisted divide, but cheap in area and energy.
	lib.resources[Divider] = Resource{
		Kind:      Divider,
		Name:      "div32",
		GEQ:       5200,
		PavActive: 12 * units.MilliWatt,
		PavIdle:   7 * units.MilliWatt,
		Tcyc:      30 * units.NanoSecond,
		Cycles:    map[OpClass]int{OpDivRem: 34},
	}

	lib.Micro = defaultMicro()

	// 0.8µ SRAM cache access component energies. With the default
	// 2-kByte direct-mapped geometry these combine to ~2.5–3 nJ per
	// access, in line with Table 1's i-cache column (e.g. 3d: 116.93 µJ
	// over ~40k fetched instructions).
	lib.Cache = CacheTech{
		EDecodePerSetLog2: 0.11 * units.NanoJoule,
		ETagBit:           0.021 * units.NanoJoule,
		EDataBit:          0.0062 * units.NanoJoule,
		EOutputPerWord:    0.19 * units.NanoJoule,
	}

	// Main memory: an on-SOC memory core. A word access costs an order
	// of magnitude more than a cache hit.
	lib.Memory = MemoryTech{
		EReadWord:     28 * units.NanoJoule,
		EWriteWord:    34 * units.NanoJoule,
		LatencyCycles: 6,
	}

	// Shared bus: long on-chip wires, a few nJ per word; writes drive
	// harder than reads (paper footnote 9).
	lib.Bus = BusTech{
		EReadWord:  2.4 * units.NanoJoule,
		EWriteWord: 3.1 * units.NanoJoule,
	}
	lib.buildExecutors()
	return lib
}

// defaultMicro builds the SPARCLite-class µP model. Per-instruction
// energies follow the Tiwari methodology: the whole core switches for the
// instruction's duration, so even a cheap move costs a couple of nJ, while
// loads/stores and multiplies cost 10–15 nJ. That reproduces the 2–15
// nJ/cycle spread implied by the paper's Table 1 (ckey ≈ 2 nJ/cycle,
// digs/MPG ≈ 14 nJ/cycle).
func defaultMicro() MicroprocessorSpec {
	m := MicroprocessorSpec{
		Name:        "sparclite-886",
		ClockPeriod: 40 * units.NanoSecond, // 25 MHz, 0.8µ era
	}
	set := func(c InstrClass, e units.Energy, cycles int, uses ...ResourceKind) {
		m.BaseEnergy[c] = e
		m.CyclesFor[c] = cycles
		m.Uses[c] = uses
	}
	set(IClassALU, 3.6*units.NanoJoule, 1, ALU)
	set(IClassShift, 3.4*units.NanoJoule, 1, Shifter)
	set(IClassMul, 13.0*units.NanoJoule, 3, Multiplier)
	set(IClassDiv, 42.0*units.NanoJoule, 12, Divider)
	set(IClassLoad, 9.8*units.NanoJoule, 2, ALU) // address add
	set(IClassStore, 10.6*units.NanoJoule, 2, ALU)
	set(IClassBranch, 3.0*units.NanoJoule, 2, Comparator)
	set(IClassMove, 1.9*units.NanoJoule, 1)
	set(IClassCall, 4.4*units.NanoJoule, 2)
	set(IClassNop, 1.2*units.NanoJoule, 1)

	// Circuit-state overhead: switching between classes costs a modest
	// extra amount, largest between datapath-heavy and memory classes
	// (as measured in [12]). Symmetric by construction.
	for i := InstrClass(0); i < NumInstrClasses; i++ {
		for j := InstrClass(0); j < NumInstrClasses; j++ {
			if i == j {
				continue
			}
			over := 0.25 * units.NanoJoule
			if i == IClassMul || j == IClassMul || i == IClassDiv || j == IClassDiv {
				over = 0.6 * units.NanoJoule
			}
			if i == IClassLoad || j == IClassLoad || i == IClassStore || j == IClassStore {
				over = 0.45 * units.NanoJoule
			}
			m.CSOverhead[i][j] = over
		}
	}

	// The core's internal datapath inventory (for U_µP): one of each
	// functional unit.
	m.CoreResources[ALU] = 1
	m.CoreResources[Shifter] = 1
	m.CoreResources[Multiplier] = 1
	m.CoreResources[Divider] = 1
	m.CoreResources[Comparator] = 1
	return m
}

// DefaultResourceSets returns the 3–5 designer-supplied hardware budgets
// the paper mentions ("due to our design praxis 3 to 5 sets are given,
// depending on the complexity of an application"). They range from a tiny
// serial datapath to a wide parallel one.
func DefaultResourceSets() []ResourceSet {
	return []ResourceSet{
		{
			Name: "rs-tiny",
			Max: func() (m [NumResourceKinds]int) {
				m[ALU] = 1
				m[Comparator] = 1
				return
			}(),
		},
		{
			Name: "rs-small",
			Max: func() (m [NumResourceKinds]int) {
				m[ALU] = 1
				m[Shifter] = 1
				m[Comparator] = 1
				return
			}(),
		},
		{
			Name: "rs-std",
			Max: func() (m [NumResourceKinds]int) {
				m[ALU] = 2
				m[Shifter] = 1
				m[Multiplier] = 1
				m[Comparator] = 1
				return
			}(),
		},
		{
			Name: "rs-wide",
			Max: func() (m [NumResourceKinds]int) {
				m[ALU] = 3
				m[Shifter] = 2
				m[Multiplier] = 1
				m[Comparator] = 2
				return
			}(),
		},
		{
			Name: "rs-max",
			Max: func() (m [NumResourceKinds]int) {
				m[ALU] = 2
				m[Shifter] = 1
				m[Multiplier] = 1
				m[Divider] = 1
				m[Comparator] = 1
				return
			}(),
		},
	}
}
