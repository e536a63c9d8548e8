package asic

import (
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/bus"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/interp"
	"lppart/internal/iss"
	"lppart/internal/mem"
	"lppart/internal/sched"
	"lppart/internal/tech"
)

// buildScheduled parses src, profiles it, and schedules the first loop
// region on the rs-std resource set.
func buildScheduled(t *testing.T, src string) (*cdfg.Program, *cdfg.Region, *sched.RegionSchedule, *cdfg.Profile) {
	t.Helper()
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	res, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	// Pick the last top-level loop: firSrc's compute kernel (the one with
	// a variable multiply), not the initialization loop.
	var loop *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop && r.Depth() == 1 {
			loop = r
		}
	}
	if loop == nil {
		t.Fatal("no loop region")
	}
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	rsched, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[2]}, loop)
	if err != nil {
		t.Fatalf("sched: %v", err)
	}
	return ir, loop, rsched, res.Prof
}

const firSrc = `
var in[64]; var out[64]; var gain;
func main() {
	var i;
	gain = 3;
	for i = 0; i < 64; i = i + 1 { in[i] = ((i * 13) & 31) - 14; }
	for i = 1; i < 63; i = i + 1 {
		out[i] = (in[i-1] + 2*in[i] + in[i+1]) * gain >> 2;
	}
}
`

func TestBindBasics(t *testing.T) {
	ir, loop, rsched, prof := buildScheduled(t, firSrc)
	_ = ir
	lib := tech.Default()
	b, err := Bind(rsched, lib, func(bid int) int64 {
		return prof.BlockCount(loop.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instances) == 0 {
		t.Fatal("no instances bound")
	}
	if b.URate <= 0 || b.URate > 1 {
		t.Errorf("U_R = %g, want (0,1]", b.URate)
	}
	if b.NcycWeighted <= 0 {
		t.Error("weighted cycles must be positive")
	}
	if b.GEQDatapath <= 0 || b.GEQController <= 0 || b.GEQRegisters <= 0 {
		t.Errorf("GEQ breakdown: %d/%d/%d", b.GEQDatapath, b.GEQController, b.GEQRegisters)
	}
	if b.GEQTotal() != b.GEQDatapath+b.GEQController+b.GEQRegisters {
		t.Error("GEQTotal mismatch")
	}
	if b.Clock < minClock {
		t.Errorf("clock %v below controller floor", b.Clock)
	}
	// Multiplier instantiated (the kernel multiplies), so the clock must
	// be at least the multiplier's.
	if b.InstanceCount(tech.Multiplier) < 1 {
		t.Error("kernel multiplies; expected a multiplier instance")
	}
	if b.Clock < lib.Resource(tech.Multiplier).Tcyc {
		t.Errorf("clock %v below multiplier Tcyc", b.Clock)
	}
}

func TestBindRespectsBudget(t *testing.T) {
	_, loop, _, prof := buildScheduled(t, firSrc)
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	for si := range sets {
		rsched, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[si]}, loop)
		if err != nil {
			continue // set cannot execute the cluster
		}
		b, err := Bind(rsched, lib, func(bid int) int64 {
			return prof.BlockCount(loop.Func, bid)
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
			if got := b.InstanceCount(k); got > sets[si].Limit(k) {
				t.Errorf("set %s: %d instances of %v exceed budget %d",
					sets[si].Name, got, k, sets[si].Limit(k))
			}
		}
	}
}

func TestBindInstanceActiveBounded(t *testing.T) {
	_, loop, rsched, prof := buildScheduled(t, firSrc)
	b, err := Bind(rsched, tech.Default(), func(bid int) int64 {
		return prof.BlockCount(loop.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range b.Instances {
		if in.ActiveWeighted <= 0 {
			t.Errorf("instance %v#%d never active — should not have been instantiated", in.Kind, in.Index)
		}
		if in.ActiveWeighted > b.NcycWeighted {
			t.Errorf("instance %v#%d active %d exceeds cluster cycles %d",
				in.Kind, in.Index, in.ActiveWeighted, b.NcycWeighted)
		}
	}
}

func TestSelectionEstimatePositive(t *testing.T) {
	_, loop, rsched, prof := buildScheduled(t, firSrc)
	lib := tech.Default()
	b, err := Bind(rsched, lib, func(bid int) int64 {
		return prof.BlockCount(loop.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	e := b.EnergySelectionEstimate(lib)
	if e <= 0 {
		t.Fatalf("selection estimate %v", e)
	}
	// Sanity: the per-cluster ASIC energy must be far below what the µP
	// spends per the instruction model on the same work (the paper's
	// premise). The loop executes ~62*10 ops; µP at ~5 nJ/op would be
	// ~3 µJ. The ASIC estimate should be well under 1 µJ.
	if e > 1e-6 {
		t.Errorf("selection estimate %v implausibly high", e)
	}
}

// TestCoSimulationMatchesSoftware is the central differential test: a
// partitioned design (µP + ASIC core co-simulation) must produce exactly
// the same shared-memory contents as the all-software design.
func TestCoSimulationMatchesSoftware(t *testing.T) {
	sources := map[string]string{
		"fir": firSrc,
		"scale": `
var a[32]; var total;
func main() {
	var i;
	for i = 0; i < 32; i = i + 1 { a[i] = i * 7 - 50; }
	for i = 0; i < 32; i = i + 1 { a[i] = (a[i] << 1) + 3; }
	total = 0;
	for i = 0; i < 32; i = i + 1 { total = total + a[i]; }
}`,
		"conditional": `
var v[48]; var pos; var neg;
func main() {
	var i;
	for i = 0; i < 48; i = i + 1 { v[i] = (i * 31) % 17 - 8; }
	for i = 0; i < 48; i = i + 1 {
		if v[i] > 0 { pos = pos + v[i]; } else { neg = neg - v[i]; }
	}
}`,
		"nested-loop": `
var img[64]; var outp[64];
func main() {
	var x; var y; var acc;
	for y = 0; y < 8; y = y + 1 {
		for x = 0; x < 8; x = x + 1 { img[y*8+x] = (x ^ y) * 5; }
	}
	for y = 1; y < 7; y = y + 1 {
		for x = 1; x < 7; x = x + 1 {
			acc = img[y*8+x]*4 + img[y*8+x-1] + img[y*8+x+1] + img[(y-1)*8+x] + img[(y+1)*8+x];
			outp[y*8+x] = acc >> 3;
		}
	}
}`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			coSimDifferential(t, src, 1) // partition the 2nd loop region
		})
	}
}

// coSimDifferential compiles src twice — all-software and with loop
// region #idx excluded to an ASIC core — runs both, and compares every
// global in shared memory.
func coSimDifferential(t *testing.T, src string, idx int) {
	t.Helper()
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	lib := tech.Default()
	sets := tech.DefaultResourceSets()

	profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}

	var loops []*cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop && r.Depth() == 1 {
			loops = append(loops, r)
		}
	}
	if idx >= len(loops) {
		t.Fatalf("only %d top-level loops", len(loops))
	}
	target := loops[idx]

	// All-software reference.
	swProg, swLay, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	swRes, err := iss.Run(swProg, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Partitioned design.
	hwProg, hwLay, err := codegen.Compile(ir, codegen.Options{
		MemWords: 1 << 16, StackWords: 1 << 12,
		Exclude: map[int]int{target.ID: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rsched, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[2]}, target)
	if err != nil {
		t.Fatal(err)
	}
	binding, err := Bind(rsched, lib, func(bid int) int64 {
		return profRes.Prof.BlockCount(target.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New(lib)
	m := mem.New(lib)
	core, err := NewCore(0, ir, target, binding, hwLay, lib, b, m)
	if err != nil {
		t.Fatal(err)
	}
	hwRes, err := iss.Run(hwProg, iss.Options{ASIC: core})
	if err != nil {
		t.Fatal(err)
	}

	// Compare all globals.
	for gi, g := range ir.Globals {
		swAddr, words, _ := swLay.VarAddr(ir, "", true, gi)
		hwAddr, _, _ := hwLay.VarAddr(ir, "", true, gi)
		for w := int32(0); w < words; w++ {
			if swRes.Mem[swAddr+w] != hwRes.Mem[hwAddr+w] {
				t.Fatalf("global %s[%d]: sw=%d hw=%d", g.Name, w,
					swRes.Mem[swAddr+w], hwRes.Mem[hwAddr+w])
			}
		}
	}
	// Co-sim accounting sanity.
	if core.Invocations != 1 {
		t.Errorf("invocations = %d, want 1", core.Invocations)
	}
	if core.CyclesASIC <= 0 || core.Energy <= 0 {
		t.Errorf("cycles=%d energy=%v", core.CyclesASIC, core.Energy)
	}
	if core.WordsIn <= 0 {
		t.Error("no input transfers charged")
	}
	if b.Energy() <= 0 || m.Energy() <= 0 {
		t.Error("bus/memory transfer energy missing")
	}
	if hwRes.ASICCycles != core.CyclesMuP {
		t.Errorf("ISS ASIC cycles %d != core µP cycles %d", hwRes.ASICCycles, core.CyclesMuP)
	}
	// The partitioned µP executes fewer instructions.
	if hwRes.Instrs >= swRes.Instrs {
		t.Errorf("partitioned µP ran %d instrs, all-SW %d — cluster not offloaded",
			hwRes.Instrs, swRes.Instrs)
	}
}

func TestCoreRejectsWrongID(t *testing.T) {
	prog := behav.MustParse("t", firSrc)
	ir := cdfg.MustBuild(prog)
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	var loop *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loop = r
			break
		}
	}
	rsched, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[2]}, loop)
	if err != nil {
		t.Fatal(err)
	}
	binding, err := Bind(rsched, lib, func(bid int) int64 {
		return profRes.Prof.BlockCount(loop.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, lay, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(3, ir, loop, binding, lay, lib, bus.New(lib), mem.New(lib))
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]int32, 1<<16)
	if _, err := core.RunASIC(0, shared); err == nil || !strings.Contains(err.Error(), "invoked as") {
		t.Errorf("wrong-id invocation: %v", err)
	}
}

func TestUtilizationImprovesWithTighterSets(t *testing.T) {
	// A serial chain on a wide resource set wastes instances; on a tiny
	// set utilization must be at least as high.
	src := `
var x; var n;
func main() {
	var i;
	n = 100;
	for i = 0; i < n; i = i + 1 {
		x = ((x + 3) ^ (x - 1)) + ((x & 7) | 1);
	}
}
`
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	lib := tech.Default()
	profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	var loop *cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loop = r
		}
	}
	uOf := func(rsSet *tech.ResourceSet) float64 {
		rsched, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: rsSet}, loop)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Bind(rsched, lib, func(bid int) int64 {
			return profRes.Prof.BlockCount(loop.Func, bid)
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.URate
	}
	sets := tech.DefaultResourceSets()
	uTiny, uWide := uOf(&sets[0]), uOf(&sets[3])
	if uTiny < uWide {
		t.Errorf("tiny-set utilization %.3f below wide-set %.3f", uTiny, uWide)
	}
}
