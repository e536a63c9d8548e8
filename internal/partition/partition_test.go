package partition

import (
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/interp"
	"lppart/internal/iss"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// setup builds IR, profile and a measured baseline for src.
func setup(t *testing.T, src string) (*cdfg.Program, *cdfg.Profile, *Baseline) {
	t.Helper()
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	lib := tech.Default()
	res, err := iss.Run(mp, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := &Baseline{
		TotalEnergy:        res.Energy * 2, // headroom stands in for cache/mem energy
		MuPEnergy:          res.Energy,
		RestEnergy:         res.Energy,
		TotalCycles:        res.TotalCycles(),
		Regions:            res.Regions,
		Micro:              &lib.Micro,
		ICacheAccessEnergy: 2.5 * units.NanoJoule,
	}
	return ir, profRes.Prof, base
}

const hotLoopSrc = `
var data[256]; var out[256]; var total;
func main() {
	var i; var v;
	for i = 0; i < 256; i = i + 1 { data[i] = (i * 37) & 255; }
	for i = 0; i < 256; i = i + 1 {
		v = data[i];
		out[i] = (v * v + (v << 3) - (v >> 1)) & 65535;
	}
	for i = 0; i < 256; i = i + 1 { total = total + out[i]; }
}
`

func TestPartitionChoosesHotCluster(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == nil {
		t.Fatalf("no partition chosen:\n%s", dec.Trail())
	}
	// The compute loop (second) must be chosen, not the init or sum.
	if !strings.Contains(dec.Chosen.Region.Label, "loop") {
		t.Errorf("chosen %s is not a loop", dec.Chosen.Region.Label)
	}
	if dec.Chosen.Eval.UASIC <= dec.Chosen.Eval.UMuP {
		t.Error("chosen cluster must beat the µP's utilization")
	}
	if dec.Chosen.Eval.OF >= dec.BaselineOF {
		t.Error("chosen OF must beat the baseline")
	}
	if dec.Chosen.Eval.GEQ <= 0 || dec.Chosen.Eval.GEQ > 16000 {
		t.Errorf("chosen GEQ %d out of range", dec.Chosen.Eval.GEQ)
	}
}

func TestPartitionRequiresInputs(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	if _, err := Partition(ir, nil, base, Config{}); err == nil {
		t.Error("nil profile must error")
	}
	if _, err := Partition(ir, prof, nil, Config{}); err == nil {
		t.Error("nil baseline must error")
	}
}

func TestPartitionDecisionTrailComplete(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every region appears in the trail exactly once.
	if len(dec.Candidates) != len(ir.Regions()) {
		t.Errorf("trail has %d candidates, program has %d regions",
			len(dec.Candidates), len(ir.Regions()))
	}
	trail := dec.Trail()
	if !strings.Contains(trail, "CHOSEN") {
		t.Error("trail missing CHOSEN line")
	}
	// Function regions with calls/returns are explained.
	found := false
	for _, c := range dec.Candidates {
		if c.Region.Kind == cdfg.RegionFunc && c.SkipReason != "" {
			found = true
		}
	}
	if !found {
		t.Error("main's function region should be skipped with a reason")
	}
}

func TestPreselectionBudget(t *testing.T) {
	// With MaxClusters=1 only the single best-scoring cluster is
	// evaluated.
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{MaxClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	for _, c := range dec.Candidates {
		if c.Preselected {
			evaluated++
		}
	}
	if evaluated != 1 {
		t.Errorf("pre-selected %d clusters, want 1", evaluated)
	}
}

func TestGEQBudgetRejects(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{GEQBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen != nil {
		t.Errorf("a 100-cell budget cannot fit any core, chose %s (%d cells)",
			dec.Chosen.Region.Label, dec.Chosen.Eval.GEQ)
	}
	// The trail must explain the rejections.
	if !strings.Contains(dec.Trail(), "exceeds budget") {
		t.Error("trail should mention budget rejections")
	}
}

func TestIneligibleReasons(t *testing.T) {
	src := `
func helper(x) { return x * 2; }
func main() {
	var i; var s;
	for i = 0; i < 10; i = i + 1 {
		s = s + helper(i);
	}
	return s;
}
`
	ir, prof, base := setup(t, src)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop contains a call: it must be skipped with that reason.
	for _, c := range dec.Candidates {
		if c.Region.Kind == cdfg.RegionLoop {
			if !strings.Contains(c.SkipReason, "calls") {
				t.Errorf("loop with call skipped for %q, want call reason", c.SkipReason)
			}
		}
	}
}

func TestNeverExecutedClusterSkipped(t *testing.T) {
	src := `
var g;
func main() {
	var i;
	if g > 100 {
		for i = 0; i < 10; i = i + 1 { g = g + i * i; }
	}
	g = g + 1;
}
`
	ir, prof, base := setup(t, src)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Candidates {
		if c.Region.Kind == cdfg.RegionLoop && c.SkipReason == "" {
			t.Error("dead loop must be skipped (never executed)")
		}
	}
}

func TestEstimateTrafficFig3(t *testing.T) {
	src := `
var a[16]; var b2[16]; var c[16];
func main() {
	var i;
	for i = 0; i < 16; i = i + 1 { a[i] = i; }
	for i = 0; i < 16; i = i + 1 { b2[i] = a[i] * 2; }
	for i = 0; i < 16; i = i + 1 { c[i] = b2[i] + 1; }
}
`
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	var loops []*cdfg.Region
	for _, r := range ir.Regions() {
		if r.Kind == cdfg.RegionLoop {
			loops = append(loops, r)
		}
	}
	lib := tech.Default()
	// Middle loop: reads a (16 words, generated before), writes b2 (16
	// words, used after).
	tr := EstimateTraffic(ir, loops[1], loops[0], loops[2], lib)
	if tr.WordsIn < 16 || tr.WordsIn > 18 {
		t.Errorf("WordsIn = %d, want ~16 (array a + loop scalar)", tr.WordsIn)
	}
	if tr.WordsOut < 16 || tr.WordsOut > 18 {
		t.Errorf("WordsOut = %d, want ~16 (array b2)", tr.WordsOut)
	}
	// Synergy: if the first loop were in hardware, a's transfer is
	// discounted (step 2); if the third were, b2's is (step 4).
	if tr.SynergyIn < 16 {
		t.Errorf("SynergyIn = %d, want >= 16 (gen[c_{i-1}] ∩ use[c_i])", tr.SynergyIn)
	}
	if tr.SynergyOut < 16 {
		t.Errorf("SynergyOut = %d, want >= 16", tr.SynergyOut)
	}
	in, out := tr.EffectiveWords(true, true)
	if in > 2 || out > 2 {
		t.Errorf("with both neighbours in HW, effective transfers %d/%d should nearly vanish", in, out)
	}
	if tr.Energy <= 0 {
		t.Error("traffic energy must be positive")
	}
	// Fig. 3 step 5: energy = (in+out) words × (read + write) bus energy.
	want := units.Energy(float64(tr.WordsIn+tr.WordsOut)) * (lib.Bus.EReadWord + lib.Bus.EWriteWord)
	if tr.Energy != want {
		t.Errorf("traffic energy %v, want %v", tr.Energy, want)
	}
}

func TestCumulativeRegionStats(t *testing.T) {
	// A nested loop's instructions are tagged to the inner region; the
	// outer cluster's stats must include them.
	src := `
var m[64]; var s;
func main() {
	var i; var j;
	for i = 0; i < 8; i = i + 1 {
		for j = 0; j < 8; j = j + 1 {
			s = s + m[i*8+j] + i*j;
		}
	}
}
`
	ir, prof, base := setup(t, src)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var outer, inner *Candidate
	for _, c := range dec.Candidates {
		if c.Region.Kind != cdfg.RegionLoop {
			continue
		}
		if c.Region.Depth() == 1 {
			outer = c
		} else {
			inner = c
		}
	}
	if outer == nil || inner == nil || outer.MuP == nil || inner.MuP == nil {
		t.Fatalf("missing candidates: outer=%v inner=%v", outer, inner)
	}
	if outer.MuP.Energy < inner.MuP.Energy {
		t.Errorf("outer cumulative energy %v below inner %v", outer.MuP.Energy, inner.MuP.Energy)
	}
	if outer.MuP.Instrs <= inner.MuP.Instrs {
		t.Errorf("outer cumulative instrs %d not above inner %d", outer.MuP.Instrs, inner.MuP.Instrs)
	}
}

func TestInvocationsOf(t *testing.T) {
	src := `
var s;
func main() {
	var i; var j;
	for i = 0; i < 7; i = i + 1 {
		for j = 0; j < 5; j = j + 1 { s = s + 1; }
	}
}
`
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ir.Regions() {
		if r.Kind != cdfg.RegionLoop {
			continue
		}
		inv := invocationsOf(profRes.Prof, r)
		switch r.Depth() {
		case 1:
			if inv != 1 {
				t.Errorf("outer loop invocations = %d, want 1", inv)
			}
		case 2:
			if inv != 7 {
				t.Errorf("inner loop invocations = %d, want 7", inv)
			}
		}
	}
}

func TestMemoReusesScheduleBinds(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{MaxCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == nil {
		t.Fatalf("expected a partition so a second round runs:\n%s", dec.Trail())
	}
	pre := 0
	for _, c := range dec.Candidates {
		if c.Preselected {
			pre++
		}
	}
	sets := len(tech.DefaultResourceSets())
	// Round 1 schedules+binds every pre-selected (cluster, set) pair from
	// scratch; the second round's grid (everything not overlapping the
	// chosen cluster) is a subset, so it must be served entirely from the
	// memo — zero new schedule/bind calls.
	if want := pre * sets; dec.Memo.Binds != want {
		t.Errorf("Memo.Binds = %d, want %d (one per round-1 grid pair)", dec.Memo.Binds, want)
	}
	if want := (pre - 1) * sets; dec.Memo.Hits != want {
		t.Errorf("Memo.Hits = %d, want %d (round 2 = grid minus the chosen cluster)",
			dec.Memo.Hits, want)
	}
	if hr := dec.Memo.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("HitRate() = %v, want in (0,1)", hr)
	}
}

func TestMemoUnusedSingleCore(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := Partition(ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A single Fig. 1 pass visits every (cluster, set) pair exactly once:
	// no reuse opportunity, and the memo must not invent one.
	if dec.Memo.Hits != 0 {
		t.Errorf("Memo.Hits = %d in a MaxCores=1 run, want 0", dec.Memo.Hits)
	}
	if dec.Memo.Binds == 0 {
		t.Error("Memo.Binds = 0, want one per evaluated grid pair")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Lib == nil || c.ResourceSets == nil {
		t.Error("defaults must fill library and resource sets")
	}
	if c.MaxClusters != 5 || c.F != 1.0 || c.GEQBudget != 16000 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}
