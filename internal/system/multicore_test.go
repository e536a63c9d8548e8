package system

import (
	"context"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/partition"
)

// twoHotLoops has two independent multiply-heavy clusters separated by a
// software stage; with MaxCores=2 both should move to hardware.
const twoHotLoops = `
var a[128]; var b2[128]; var c[128]; var total;
func main() {
	var i; var v;
	for i = 0; i < 128; i = i + 1 { a[i] = (i * 37) & 255; }
	for i = 0; i < 128; i = i + 1 {
		v = a[i];
		b2[i] = (v * v + (v << 3)) & 65535;
	}
	for i = 0; i < 128; i = i + 1 { b2[i] = b2[i] ^ (i & 7); }
	for i = 0; i < 128; i = i + 1 {
		v = b2[i];
		c[i] = (v * 3 + v * v - (v >> 2)) & 65535;
	}
	for i = 0; i < 128; i = i + 1 { total = total + c[i]; }
}
`

func evalCores(t *testing.T, maxCores int) *Evaluation {
	t.Helper()
	src := behav.MustParse("twohot", twoHotLoops)
	cfg := Config{MemWords: 1 << 16, StackWords: 1 << 12}
	cfg.Part.MaxCores = maxCores
	ev, err := Evaluate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestMultiCoreSelectsTwoClusters(t *testing.T) {
	ev := evalCores(t, 2)
	if len(ev.Decision.Choices) != 2 {
		t.Fatalf("chose %d cores, want 2:\n%s", len(ev.Decision.Choices), ev.Decision.Trail())
	}
	if ev.Decision.Choices[0].Region == ev.Decision.Choices[1].Region {
		t.Fatal("both cores map the same cluster")
	}
	if ev.Partitioned == nil {
		t.Fatal("no partitioned design")
	}
	// The co-simulation with two ASIC cores must still be functionally
	// identical to software — Evaluate verifies that internally, so
	// reaching here is the assertion.
}

func TestMultiCoreBeatsSingleCore(t *testing.T) {
	one := evalCores(t, 1)
	two := evalCores(t, 2)
	if one.Partitioned == nil || two.Partitioned == nil {
		t.Fatal("both configurations must partition")
	}
	if two.Savings() >= one.Savings() {
		t.Errorf("two cores (%.2f%%) must save more than one (%.2f%%)",
			two.Savings(), one.Savings())
	}
	// Hardware cost is the sum of both cores.
	if two.Partitioned.GEQ <= one.Partitioned.GEQ {
		t.Errorf("two cores (%d cells) must cost more hardware than one (%d)",
			two.Partitioned.GEQ, one.Partitioned.GEQ)
	}
}

func TestMultiCoreNoOverlap(t *testing.T) {
	ev := evalCores(t, 4)
	// Chosen clusters must not share blocks (e.g. a loop and its nest).
	for i, a := range ev.Decision.Choices {
		for j, b := range ev.Decision.Choices {
			if i >= j || a.Region.Func != b.Region.Func {
				continue
			}
			blocks := make(map[int]bool)
			for _, bid := range a.Region.Blocks {
				blocks[bid] = true
			}
			for _, bid := range b.Region.Blocks {
				if blocks[bid] {
					t.Fatalf("cores %d and %d share block %d", i, j, bid)
				}
			}
		}
	}
}

func TestMultiCoreOnPaperApp(t *testing.T) {
	// MPG with two cores: motion estimation plus a second kernel.
	a, err := apps.ByName("MPG")
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.Part.MaxCores = 3
	ev, err := Evaluate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Decision.Choices) < 1 {
		t.Fatal("MPG must still partition")
	}
	// Functional verification ran inside Evaluate; the multi-core design
	// must not be worse than the single-core one.
	single, err := Evaluate(mustParse(t, a), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Savings() > single.Savings()+1e-9 {
		t.Errorf("3-core MPG savings %.2f%% worse than single-core %.2f%%",
			ev.Savings(), single.Savings())
	}
}

func mustParse(t *testing.T, a apps.App) *behav.Program {
	t.Helper()
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestGreedyMemoCounters pins the greedy loop's schedule/binding memo
// counters (partition.Decision.Memo) on the six Table 1 applications at
// one and three cores. Each greedy round visits a (cluster, resource
// set) pair at most once, so Binds (distinct pairs scheduled and bound)
// and Hits (later rounds reusing them) are deterministic at any worker
// count; a change to either is a change to the search, not noise.
func TestGreedyMemoCounters(t *testing.T) {
	// want[app][k] is {Binds, Hits} at 1 (k=0) and 3 (k=1) cores.
	want := map[string][2][2]int{
		"3d":     {{25, 0}, {25, 35}},
		"MPG":    {{25, 0}, {25, 10}},
		"ckey":   {{25, 0}, {25, 15}},
		"digs":   {{25, 0}, {25, 5}},
		"engine": {{25, 0}, {25, 25}},
		"trick":  {{15, 0}, {15, 0}},
	}
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		ev, base, err := MeasureInitialCtx(context.Background(), ir, Config{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for k, cores := range []int{1, 3} {
			var pc partition.Config
			pc.MaxCores = cores
			dec, err := partition.Partition(ir, ev.Profile, base, pc)
			if err != nil {
				t.Fatalf("%s cores=%d: %v", a.Name, cores, err)
			}
			if got, w := dec.Memo, want[a.Name][k]; got.Binds != w[0] || got.Hits != w[1] {
				t.Errorf("%s cores=%d: Memo = %+v, want Binds %d Hits %d", a.Name, cores, got, w[0], w[1])
			}
		}
	}
}
