package asic

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/interp"
	"lppart/internal/sched"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// refBinding is the map-based binding Bind produced before it went dense:
// placements keyed by op ID, per-block latencies keyed by block ID.
type refBinding struct {
	Instances    []Instance
	PlacementOf  map[int]Placement
	NcycWeighted int64
	Steps        int
	URate        float64
	LiveWords    int

	GEQDatapath, GEQController, GEQRegisters int
	Clock                                    units.Time
	BlockLen                                 map[int]int
}

// refBind is the reference Fig. 4 binder the dense Bind must reproduce
// bit for bit: per-instance occupancy as a map of busy steps, each
// block's ops copied and sorted by (Start, Op.ID), live words counted
// with two map sets.
func refBind(rsched *sched.RegionSchedule, lib *tech.Library, blockFreq func(blockID int) int64) *refBinding {
	b := &refBinding{
		PlacementOf: make(map[int]Placement),
		BlockLen:    make(map[int]int),
	}
	busy := []map[int]bool{}
	instOf := make(map[tech.ResourceKind][]int)
	base := 0
	for _, bs := range rsched.Blocks {
		freq := blockFreq(bs.Block.ID)
		b.BlockLen[bs.Block.ID] = bs.Len
		b.NcycWeighted += int64(bs.Len) * freq
		b.Steps += bs.Len
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
	for _, in := range b.Instances {
		b.GEQDatapath += lib.Resource(in.Kind).GEQ
	}
	b.GEQController = lib.ControllerGEQPerStep * b.Steps
	b.LiveWords = refCountLiveWords(rsched, len(b.Instances))
	b.GEQRegisters = lib.RegisterGEQPerWord * b.LiveWords
	if b.NcycWeighted > 0 && len(b.Instances) > 0 {
		sum := 0.0
		for _, in := range b.Instances {
			sum += float64(in.ActiveWeighted) / float64(b.NcycWeighted)
		}
		b.URate = sum / float64(len(b.Instances))
	}
	b.Clock = minClock
	for _, in := range b.Instances {
		if t := lib.Resource(in.Kind).Tcyc; t > b.Clock {
			b.Clock = t
		}
	}
	if lib.WireDelayPerLog2 > 0 && lib.WireGEQRef > 0 {
		b.Clock += lib.WireDelayPerLog2 *
			units.Time(math.Log2(1+float64(b.GEQDatapath+b.GEQController+b.GEQRegisters)/float64(lib.WireGEQRef)))
	}
	return b
}

func refCountLiveWords(rsched *sched.RegionSchedule, instances int) int {
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

// checkBindMatchesRef binds rsched with Bind and refBind and fails on any
// difference in the instance list, any op's placement or any aggregate.
func checkBindMatchesRef(t *testing.T, label string, rsched *sched.RegionSchedule, lib *tech.Library, freq func(int) int64) *Binding {
	t.Helper()
	got, err := Bind(rsched, lib, freq)
	if err != nil {
		t.Fatalf("%s: Bind: %v", label, err)
	}
	want := refBind(rsched, lib, freq)
	if !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Errorf("%s: Instances\n got %+v\nwant %+v", label, got.Instances, want.Instances)
	}
	k := 0
	for _, bs := range rsched.Blocks {
		for i := range bs.Ops {
			p := &bs.Ops[i]
			if pl, ref := got.PlacementAt(k, p), want.PlacementOf[p.Op.ID]; pl != ref {
				t.Errorf("%s: op %d placed %+v, reference %+v", label, p.Op.ID, pl, ref)
			}
			k++
		}
	}
	if len(got.OpInst) != k || len(want.PlacementOf) != k {
		t.Errorf("%s: %d dense placements, %d reference placements, %d scheduled ops",
			label, len(got.OpInst), len(want.PlacementOf), k)
	}
	type agg struct {
		LiveWords, GEQDatapath, GEQController, GEQRegisters, Steps int
		URate                                                      uint64
		Clock                                                      units.Time
		NcycWeighted                                               int64
	}
	g := agg{got.LiveWords, got.GEQDatapath, got.GEQController, got.GEQRegisters, got.Steps,
		math.Float64bits(got.URate), got.Clock, got.NcycWeighted}
	w := agg{want.LiveWords, want.GEQDatapath, want.GEQController, want.GEQRegisters, want.Steps,
		math.Float64bits(want.URate), want.Clock, want.NcycWeighted}
	if g != w {
		t.Errorf("%s: aggregates\n got %+v\nwant %+v", label, g, w)
	}
	if err := VerifyBinding(got, lib); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	return got
}

// appSchedules schedules every schedulable region of an app on every
// designer resource set, with the app's profiled block frequencies.
func appSchedules(t *testing.T, a apps.App) ([]*sched.RegionSchedule, func(*cdfg.Function) func(int) int64) {
	t.Helper()
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatalf("%s: interp: %v", a.Name, err)
	}
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	var out []*sched.RegionSchedule
	for _, r := range ir.Regions() {
		for si := range sets {
			rs, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[si]}, r)
			if err != nil {
				continue // calls, or a set too small for the region
			}
			out = append(out, rs)
		}
	}
	freqOf := func(f *cdfg.Function) func(int) int64 {
		return func(bid int) int64 { return res.Prof.BlockCount(f, bid) }
	}
	return out, freqOf
}

func TestBindMatchesReferenceOnApps(t *testing.T) {
	lib := tech.Default()
	for _, a := range apps.All() {
		scheds, freqOf := appSchedules(t, a)
		if len(scheds) == 0 {
			t.Fatalf("%s: no schedulable region", a.Name)
		}
		for _, rs := range scheds {
			label := fmt.Sprintf("%s/%s/%s", a.Name, rs.Region.Label, rs.Config.RS.Name)
			checkBindMatchesRef(t, label, rs, lib, freqOf(rs.Region.Func))
		}
	}
}

// TestBindMatchesReferenceOnRandomKernels replays the random loop kernels
// of sched's property test (same generator, same seed).
func TestBindMatchesReferenceOnRandomKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>"}
	vars := []string{"v0", "v1", "v2", "v3"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			return fmt.Sprintf("%d", 1+rng.Intn(30))
		}
		op := ops[rng.Intn(len(ops))]
		return "(" + expr(depth-1) + " " + op + " " + expr(depth-1) + ")"
	}
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	bound := 0
	for trial := 0; trial < 30; trial++ {
		src := "var arr[64];\nfunc main() {\n\tvar i; var v0; var v1; var v2; var v3;\n"
		src += "\tfor i = 0; i < 8; i = i + 1 {\n"
		for s := 0; s < 2+rng.Intn(5); s++ {
			dst := vars[rng.Intn(len(vars))]
			src += fmt.Sprintf("\t\t%s = %s;\n", dst, expr(1+rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			src += fmt.Sprintf("\t\tarr[i] = %s;\n", vars[rng.Intn(len(vars))])
		}
		src += "\t}\n}\n"

		prog, err := behav.Parse("rand", src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		ir, err := cdfg.Build(prog)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		var loop *cdfg.Region
		for _, r := range ir.Regions() {
			if r.Kind == cdfg.RegionLoop {
				loop = r
			}
		}
		// Synthetic frequencies: distinct per block, zero for some.
		freq := func(bid int) int64 { return int64(bid%4) * 7 }
		for si := range sets {
			rs, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[si]}, loop)
			if err != nil {
				continue
			}
			checkBindMatchesRef(t, fmt.Sprintf("trial %d/%s", trial, sets[si].Name), rs, lib, freq)
			bound++
		}
	}
	if bound == 0 {
		t.Fatal("no random kernel was schedulable")
	}
}

// TestBindZeroDurationOp hand-builds a schedule on a library whose ALU
// passes values through in zero cycles: a zero-duration move starting
// while the kind's first instance is busy still binds to that instance,
// as the map binder's empty occupancy scan did.
func TestBindZeroDurationOp(t *testing.T) {
	_, loop, rsched, _ := buildScheduled(t, firSrc)
	lib := tech.Default()
	alu := lib.Resource(tech.ALU)
	alu.Cycles = maps.Clone(alu.Cycles) // every Default shares the op-cycle maps
	alu.Cycles[tech.OpMove] = 0

	// Take the first block with three datapath ops and rewrite them: op A
	// on the ALU over steps [0,2), then moves B at step 0 and C at step 1,
	// both zero-duration, then the rest serially after A.
	hand := &sched.RegionSchedule{Region: loop, Config: rsched.Config}
	var zero []int // op IDs of B and C
	for _, bs := range rsched.Blocks {
		nb := &sched.BlockSchedule{Block: bs.Block, Ops: append([]sched.PlacedOp(nil), bs.Ops...), Len: bs.Len}
		hand.Blocks = append(hand.Blocks, nb)
		if zero != nil {
			continue
		}
		var dp []int
		for i := range nb.Ops {
			if !nb.Ops[i].Mem {
				dp = append(dp, i)
			}
		}
		if len(dp) < 3 {
			continue
		}
		step := 2
		for j, i := range dp {
			p := &nb.Ops[i]
			switch j {
			case 0:
				p.Kind, p.Class, p.Start, p.Dur = tech.ALU, tech.OpAddSub, 0, 2
			case 1, 2:
				p.Kind, p.Class, p.Start, p.Dur = tech.ALU, tech.OpMove, j-1, 0
				zero = append(zero, p.Op.ID)
			default:
				p.Start, p.Dur = step, 1
				step++
			}
		}
		for i := range nb.Ops {
			if nb.Ops[i].Mem {
				nb.Ops[i].Start, nb.Ops[i].Dur = step, 1
				step++
			}
		}
		nb.Len = step
	}
	if zero == nil {
		t.Fatal("FIR schedule has no block with three datapath ops")
	}
	b := checkBindMatchesRef(t, "zero-duration", hand, lib, func(bid int) int64 { return 3 })

	k := 0
	for _, bs := range hand.Blocks {
		for i := range bs.Ops {
			if id := bs.Ops[i].Op.ID; id == zero[0] || id == zero[1] {
				if in := b.Instances[b.OpInst[k]]; in.Kind != tech.ALU || in.Index != 0 {
					t.Errorf("zero-duration op %d bound to %v#%d, want ALU#0", id, in.Kind, in.Index)
				}
			}
			k++
		}
	}
}

// TestBindZeroAllocScratch pins the recycled scratch: once warm, Bind
// allocates only the Binding, its Instances and its OpInst slice.
func TestBindZeroAllocScratch(t *testing.T) {
	a, err := apps.ByName("MPG")
	if err != nil {
		t.Fatal(err)
	}
	scheds, freqOf := appSchedules(t, a)
	lib := tech.Default()
	for _, rs := range scheds {
		freq := freqOf(rs.Region.Func)
		if _, err := Bind(rs, lib, freq); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Bind(rs, lib, freq); err != nil {
				t.Error(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s/%s: Bind allocates %.1f objects per call, want <= 3",
				rs.Region.Label, rs.Config.RS.Name, allocs)
		}
	}
}
