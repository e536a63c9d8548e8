package tech

import (
	"bytes"
	"testing"

	"lppart/internal/units"
)

func TestResourceKindString(t *testing.T) {
	cases := map[ResourceKind]string{
		ALU:        "ALU",
		Multiplier: "MUL",
		Shifter:    "SHIFT",
		Divider:    "DIV",
		Comparator: "CMP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := ResourceKind(99).String(); got != "ResourceKind(99)" {
		t.Errorf("invalid kind String() = %q", got)
	}
}

func TestOpClassString(t *testing.T) {
	if OpMul.String() != "mul" || OpMemory.String() != "mem" {
		t.Errorf("unexpected op class names: %v %v", OpMul, OpMemory)
	}
	if got := OpClass(-1).String(); got != "OpClass(-1)" {
		t.Errorf("invalid class String() = %q", got)
	}
}

func TestDefaultLibraryResources(t *testing.T) {
	lib := Default()
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		r := lib.Resource(k)
		if r.Kind != k {
			t.Errorf("resource %v has mismatched kind %v", k, r.Kind)
		}
		if r.GEQ <= 0 {
			t.Errorf("resource %v has non-positive GEQ %d", k, r.GEQ)
		}
		if r.PavActive <= 0 || r.Tcyc <= 0 {
			t.Errorf("resource %v has non-positive power/cycle time", k)
		}
		if r.PavIdle >= r.PavActive {
			t.Errorf("resource %v: idle power %v should be below active %v", k, r.PavIdle, r.PavActive)
		}
		if len(r.Cycles) == 0 {
			t.Errorf("resource %v executes nothing", k)
		}
		for c, n := range r.Cycles {
			if n <= 0 {
				t.Errorf("resource %v class %v has non-positive cycles %d", k, c, n)
			}
		}
	}
}

func TestResourceCanExecute(t *testing.T) {
	lib := Default()
	if !lib.Resource(ALU).CanExecute(OpAddSub) {
		t.Error("ALU must execute addsub")
	}
	if lib.Resource(ALU).CanExecute(OpMul) {
		t.Error("ALU must not execute mul")
	}
	if !lib.Resource(Multiplier).CanExecute(OpMul) {
		t.Error("multiplier must execute mul")
	}
	if got := lib.Resource(Multiplier).OpCycles(OpMul); got != 2 {
		t.Errorf("multiplier OpCycles(mul) = %d, want 2", got)
	}
	if got := lib.Resource(ALU).OpCycles(OpMul); got != 0 {
		t.Errorf("ALU OpCycles(mul) = %d, want 0 (unsupported)", got)
	}
}

func TestExecutorsSortedBySize(t *testing.T) {
	lib := Default()
	for c := OpClass(0); c < NumOpClasses; c++ {
		kinds := lib.Executors(c)
		if c == OpMemory {
			if len(kinds) != 0 {
				t.Errorf("memory ops must not map to datapath resources, got %v", kinds)
			}
			continue
		}
		if len(kinds) == 0 {
			t.Errorf("no executor for class %v", c)
			continue
		}
		for i := 1; i < len(kinds); i++ {
			if lib.Resource(kinds[i-1]).GEQ > lib.Resource(kinds[i]).GEQ {
				t.Errorf("executors for %v not sorted by GEQ: %v", c, kinds)
			}
		}
		for _, k := range kinds {
			if !lib.Resource(k).CanExecute(c) {
				t.Errorf("executor %v cannot actually execute %v", k, c)
			}
		}
	}
}

func TestExecutorsPreferSmallest(t *testing.T) {
	lib := Default()
	// Compare ops should prefer the dedicated comparator (smaller) over
	// the ALU (Fig. 4: "the first resource means the smallest and
	// therefore the most energy efficient one").
	kinds := lib.Executors(OpCompare)
	if len(kinds) < 2 || kinds[0] != Comparator {
		t.Errorf("Executors(OpCompare) = %v, want comparator first", kinds)
	}
	// Move ops should prefer the shifter over the ALU only if smaller.
	kinds = lib.Executors(OpMove)
	if len(kinds) == 0 || lib.Resource(kinds[0]).GEQ > lib.Resource(kinds[len(kinds)-1]).GEQ {
		t.Errorf("Executors(OpMove) not size-sorted: %v", kinds)
	}
}

func TestResourceEnergies(t *testing.T) {
	lib := Default()
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		r := lib.Resource(k)
		act, idle := r.EnergyPerActiveCycle(), r.EnergyPerIdleCycle()
		if act <= 0 || idle <= 0 || idle >= act {
			t.Errorf("resource %v: active %v idle %v", k, act, idle)
		}
	}
}

func TestMicroInstrEnergy(t *testing.T) {
	m := Default().Micro
	// Same-class succession has no circuit-state overhead.
	if m.InstrEnergy(IClassALU, IClassALU) != m.BaseEnergy[IClassALU] {
		t.Error("same-class energy must equal base energy")
	}
	// Class changes add strictly positive overhead.
	if m.InstrEnergy(IClassALU, IClassLoad) <= m.BaseEnergy[IClassLoad] {
		t.Error("class change must add circuit-state overhead")
	}
	// Overhead matrix is symmetric.
	for i := InstrClass(0); i < NumInstrClasses; i++ {
		for j := InstrClass(0); j < NumInstrClasses; j++ {
			if m.CSOverhead[i][j] != m.CSOverhead[j][i] {
				t.Fatalf("CSOverhead not symmetric at %v,%v", i, j)
			}
		}
	}
}

func TestMicroEnergySpread(t *testing.T) {
	// The instruction energy table must reproduce the 2–15 nJ spread the
	// paper's Table 1 implies (see tech.go comment).
	m := Default().Micro
	min, max := m.BaseEnergy[0], m.BaseEnergy[0]
	for c := InstrClass(0); c < NumInstrClasses; c++ {
		if m.BaseEnergy[c] <= 0 {
			t.Errorf("class %v has non-positive base energy", c)
		}
		if m.BaseEnergy[c] < min {
			min = m.BaseEnergy[c]
		}
		if m.BaseEnergy[c] > max {
			max = m.BaseEnergy[c]
		}
		if m.CyclesFor[c] <= 0 {
			t.Errorf("class %v has non-positive cycle count", c)
		}
	}
	if max/min < 4 {
		t.Errorf("instruction energy spread max/min = %.1f, want >= 4 (instruction-mix dependence)", max/min)
	}
}

func TestMicroASICGap(t *testing.T) {
	// The core premise of the paper: per-cycle ASIC resource energy is
	// far below per-instruction µP energy. Verify at least 5x between
	// an ALU active cycle and an ALU-class instruction.
	lib := Default()
	asic := lib.Resource(ALU).EnergyPerActiveCycle()
	up := lib.Micro.BaseEnergy[IClassALU]
	if up < 5*asic {
		t.Errorf("µP ALU instr %v vs ASIC ALU cycle %v: gap too small for the paper's premise", up, asic)
	}
}

func TestResourceSetLimitAndGEQ(t *testing.T) {
	lib := Default()
	sets := DefaultResourceSets()
	if len(sets) < 3 || len(sets) > 5 {
		t.Fatalf("paper prescribes 3-5 designer sets, got %d", len(sets))
	}
	std := sets[2]
	if std.Limit(ALU) != 2 || std.Limit(Divider) != 0 {
		t.Errorf("rs-std limits wrong: ALU=%d DIV=%d", std.Limit(ALU), std.Limit(Divider))
	}
	if std.Limit(ResourceKind(-1)) != 0 || std.Limit(NumResourceKinds) != 0 {
		t.Error("out-of-range Limit must be 0")
	}
	want := 2*lib.Resource(ALU).GEQ + lib.Resource(Shifter).GEQ +
		lib.Resource(Multiplier).GEQ + lib.Resource(Comparator).GEQ
	if got := std.TotalGEQ(lib); got != want {
		t.Errorf("TotalGEQ = %d, want %d", got, want)
	}
}

func TestResourceSetsMonotone(t *testing.T) {
	// The designer sets should grow monotonically in total hardware so
	// the resource-set ablation sweeps a real axis.
	lib := Default()
	sets := DefaultResourceSets()
	prev := -1
	for _, s := range sets {
		g := s.TotalGEQ(lib)
		if g <= prev {
			t.Errorf("set %s GEQ %d not larger than previous %d", s.Name, g, prev)
		}
		prev = g
	}
}

func TestResourceSetString(t *testing.T) {
	s := DefaultResourceSets()[0]
	if got := s.String(); got != "rs-tiny{CMP:1 ALU:1}" {
		t.Errorf("String() = %q", got)
	}
}

func TestCacheMemBusParams(t *testing.T) {
	lib := Default()
	if lib.Memory.EReadWord <= 0 || lib.Memory.EWriteWord <= lib.Memory.EReadWord/10 {
		t.Error("memory energies implausible")
	}
	if lib.Memory.LatencyCycles <= 0 {
		t.Error("memory latency must be positive")
	}
	if lib.Bus.EWriteWord <= lib.Bus.EReadWord {
		t.Error("bus write should cost more than read (paper footnote 9)")
	}
	// Memory accesses must dwarf bus transfers, which in turn dwarf
	// register energy.
	if lib.Memory.EReadWord < 3*lib.Bus.EReadWord {
		t.Error("memory access should cost much more than a bus transfer")
	}
	if lib.ERegisterPerCycle <= 0 || lib.EControllerPerCycle <= 0 {
		t.Error("ASIC overhead energies must be positive")
	}
	if lib.ControllerGEQPerStep <= 0 || lib.RegisterGEQPerWord <= 0 {
		t.Error("ASIC overhead GEQs must be positive")
	}
}

func TestInstrClassString(t *testing.T) {
	if IClassLoad.String() != "load" || IClassNop.String() != "nop" {
		t.Error("unexpected instruction class names")
	}
	if got := InstrClass(42).String(); got != "InstrClass(42)" {
		t.Errorf("invalid class String() = %q", got)
	}
}

func TestLibraryResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Resource(invalid) must panic")
		}
	}()
	Default().Resource(NumResourceKinds)
}

func TestEnergyScaleSanity(t *testing.T) {
	lib := Default()
	// One i-cache-ish access (~2-3 nJ, checked in internal/cache) should
	// be well under a memory word read.
	if lib.Memory.EReadWord < 10*units.NanoJoule {
		t.Errorf("memory read %v implausibly small", lib.Memory.EReadWord)
	}
}

// TestDefaultAllocatesOnce: the reference library is built once, and
// Default hands out a copy of it, one allocation; it built the whole
// library on every call, 29 allocations, paid by every evaluation that
// leaves its library unset.
func TestDefaultAllocatesOnce(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { Default() }); a > 1 {
		t.Errorf("Default allocates %v times per call, want <= 1", a)
	}
}

// TestDefaultCopyIsTheCallers: editing one Default's fields, as the A5
// ablation edits Micro, leaves the next Default unchanged.
func TestDefaultCopyIsTheCallers(t *testing.T) {
	want := Default().AppendKey(nil)
	lib := Default()
	lib.Micro = lib.Micro.Gated(lib)
	lib.Micro.BaseEnergy[IClassALU] = 0
	lib.Memory.EReadWord = 0
	if got := Default().AppendKey(nil); !bytes.Equal(got, want) {
		t.Error("editing one Default's Micro and Memory changed the next Default")
	}
	if Default().Micro.GatedClocks {
		t.Error("the next Default has gated clocks")
	}
}
