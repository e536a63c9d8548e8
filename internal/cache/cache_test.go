package cache

import (
	"math"
	"testing"
	"testing/quick"

	"lppart/internal/bus"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

func newTestCache(t *testing.T, cfg Config) (*Cache, *mem.Memory, *bus.Bus) {
	t.Helper()
	lib := tech.Default()
	m := mem.New(lib)
	b := bus.New(lib)
	c, err := New("test", cfg, lib.Cache, m, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, b
}

func TestConfigValidation(t *testing.T) {
	lib := tech.Default()
	bad := []Config{
		{Sets: 0, Assoc: 1, LineWords: 4},
		{Sets: 3, Assoc: 1, LineWords: 4},
		{Sets: 16, Assoc: 0, LineWords: 4},
		{Sets: 16, Assoc: 1, LineWords: 3},
	}
	for _, cfg := range bad {
		if _, err := New("x", cfg, lib.Cache, nil, nil); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if got := DefaultICache().SizeBytes(); got != 2048 {
		t.Errorf("i-cache size = %d, want 2048", got)
	}
	if got := DefaultDCache().SizeBytes(); got != 2048 {
		t.Errorf("d-cache size = %d, want 2048", got)
	}
}

func TestHitMissBasic(t *testing.T) {
	c, _, _ := newTestCache(t, Config{Sets: 16, Assoc: 1, LineWords: 4, WriteBack: true})
	// First access: miss. Same line: hits.
	if stall := c.Access(0, false); stall == 0 {
		t.Error("cold access must stall")
	}
	for w := int32(0); w < 4; w++ {
		if stall := c.Access(w, false); stall != 0 {
			t.Errorf("word %d: stall %d on expected hit", w, stall)
		}
	}
	if c.Stats.Misses != 1 || c.Stats.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss 4 hits", c.Stats)
	}
}

func TestConflictMisses(t *testing.T) {
	cfg := Config{Sets: 4, Assoc: 1, LineWords: 1, WriteBack: true}
	c, _, _ := newTestCache(t, cfg)
	// Two addresses mapping to the same set thrash a direct-mapped cache.
	a, b := int32(0), int32(4)
	for i := 0; i < 10; i++ {
		c.Access(a, false)
		c.Access(b, false)
	}
	if c.Stats.Hits != 0 {
		t.Errorf("direct-mapped thrash must never hit, got %d hits", c.Stats.Hits)
	}
	// The same pattern in a 2-way cache hits after the cold misses.
	c2, _, _ := newTestCache(t, Config{Sets: 4, Assoc: 2, LineWords: 1, WriteBack: true})
	for i := 0; i < 10; i++ {
		c2.Access(a, false)
		c2.Access(b, false)
	}
	if c2.Stats.Misses != 2 {
		t.Errorf("2-way cache misses = %d, want 2 cold misses", c2.Stats.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c, _, _ := newTestCache(t, Config{Sets: 1, Assoc: 2, LineWords: 1, WriteBack: true})
	c.Access(0, false) // A
	c.Access(1, false) // B
	c.Access(0, false) // A again (B is now LRU)
	c.Access(2, false) // C evicts B
	if stall := c.Access(0, false); stall != 0 {
		t.Error("A must still be resident")
	}
	if stall := c.Access(1, false); stall == 0 {
		t.Error("B must have been evicted")
	}
}

func TestWriteBack(t *testing.T) {
	c, m, _ := newTestCache(t, Config{Sets: 1, Assoc: 1, LineWords: 4, WriteBack: true})
	c.Access(0, true) // dirty line
	before := m.Writes
	c.Access(100, false) // evicts dirty line
	if c.Stats.WriteBacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.WriteBacks)
	}
	if m.Writes != before+4 {
		t.Errorf("memory writes = %d, want +4 words", m.Writes)
	}
}

func TestFlush(t *testing.T) {
	c, m, _ := newTestCache(t, Config{Sets: 4, Assoc: 1, LineWords: 2, WriteBack: true})
	c.Access(0, true)
	c.Access(2, true)
	c.Access(4, false)
	before := m.Writes
	stall := c.Flush()
	if c.Stats.WriteBacks != 2 || stall == 0 {
		t.Errorf("flush: writebacks=%d stall=%d", c.Stats.WriteBacks, stall)
	}
	if m.Writes != before+4 {
		t.Errorf("flush wrote %d words, want 4", m.Writes-before)
	}
	// Second flush: nothing dirty.
	if c.Flush() != 0 {
		t.Error("second flush must be free")
	}
}

func TestReadOnlyCachePanicsOnWrite(t *testing.T) {
	c, _, _ := newTestCache(t, DefaultICache())
	defer func() {
		if recover() == nil {
			t.Error("write to i-cache must panic")
		}
	}()
	c.Access(0, true)
}

func TestEnergyAccounting(t *testing.T) {
	c, m, b := newTestCache(t, Config{Sets: 16, Assoc: 1, LineWords: 4, WriteBack: true})
	if c.AccessEnergy() <= 0 {
		t.Fatal("per-access energy must be positive")
	}
	for i := int32(0); i < 64; i++ {
		c.Access(i, false)
	}
	wantCache := 64 * float64(c.AccessEnergy())
	if math.Abs(float64(c.Energy())-wantCache) > 1e-15 {
		t.Errorf("cache energy %v, want %v", c.Energy(), wantCache)
	}
	// 16 misses refill 4 words each.
	if m.Reads != 64 {
		t.Errorf("memory reads = %d, want 64", m.Reads)
	}
	if b.ReadWords != 64 {
		t.Errorf("bus reads = %d, want 64", b.ReadWords)
	}
	if m.Energy() <= 0 || b.Energy() <= 0 {
		t.Error("memory/bus energy must be positive after misses")
	}
}

func TestConfigAccessEnergyMatchesCore(t *testing.T) {
	// The pure Config-level computation must agree exactly with the
	// energy a built cache core accounts per access — it replaced the
	// throwaway "probe" cache the system baseline used to build.
	lib := tech.Default()
	for _, cfg := range []Config{
		DefaultICache(),
		DefaultDCache(),
		{Sets: 256, Assoc: 4, LineWords: 8, WriteBack: true},
		{Sets: 1, Assoc: 1, LineWords: 1},
	} {
		c, err := New("probe", cfg, lib.Cache, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.AccessEnergy(lib.Cache), c.AccessEnergy(); got != want {
			t.Errorf("%+v: Config.AccessEnergy = %v, core accounts %v", cfg, got, want)
		}
	}
}

func TestAccessEnergyScalesWithSize(t *testing.T) {
	lib := tech.Default()
	small, _ := New("s", Config{Sets: 64, Assoc: 1, LineWords: 4}, lib.Cache, nil, nil)
	big, _ := New("b", Config{Sets: 1024, Assoc: 1, LineWords: 4}, lib.Cache, nil, nil)
	wide, _ := New("w", Config{Sets: 64, Assoc: 4, LineWords: 4}, lib.Cache, nil, nil)
	if big.AccessEnergy() <= small.AccessEnergy() {
		t.Error("bigger cache must cost more per access")
	}
	if wide.AccessEnergy() <= small.AccessEnergy() {
		t.Error("higher associativity must cost more per access")
	}
}

func TestAccessEnergyMagnitude(t *testing.T) {
	// The reference i-cache geometry should land in the low-nJ range the
	// paper's Table 1 implies (~2-3 nJ per fetch).
	lib := tech.Default()
	c, _ := New("i", DefaultICache(), lib.Cache, nil, nil)
	e := float64(c.AccessEnergy()) / 1e-9
	if e < 1 || e > 6 {
		t.Errorf("i-cache access energy %.2f nJ, want 1-6 nJ", e)
	}
}

func TestMissesStallByLineLength(t *testing.T) {
	lib := tech.Default()
	m := mem.New(lib)
	c, _ := New("c", Config{Sets: 16, Assoc: 1, LineWords: 8, WriteBack: true}, lib.Cache, m, nil)
	stall := c.Access(0, false)
	want := lib.Memory.LatencyCycles * 8
	if stall != want {
		t.Errorf("miss stall = %d, want %d", stall, want)
	}
}

func TestHitRateSequentialVsRandom(t *testing.T) {
	// Sequential walks have high spatial locality; strided access that
	// jumps a line each time has none.
	c1, _, _ := newTestCache(t, Config{Sets: 64, Assoc: 1, LineWords: 4, WriteBack: true})
	for i := int32(0); i < 1024; i++ {
		c1.Access(i, false)
	}
	c2, _, _ := newTestCache(t, Config{Sets: 64, Assoc: 1, LineWords: 4, WriteBack: true})
	for i := int32(0); i < 1024; i++ {
		c2.Access(i*4, false)
	}
	if c1.Stats.HitRate() < 0.7 {
		t.Errorf("sequential hit rate %.2f too low", c1.Stats.HitRate())
	}
	if c2.Stats.HitRate() > c1.Stats.HitRate() {
		t.Error("line-strided access cannot beat sequential")
	}
}

func TestResetClears(t *testing.T) {
	c, _, _ := newTestCache(t, DefaultDCache())
	c.Access(0, true)
	c.Access(1, false)
	c.Reset()
	if c.Stats != (Stats{}) {
		t.Errorf("stats after reset: %+v", c.Stats)
	}
	if stall := c.Access(0, false); stall == 0 {
		t.Error("reset must invalidate contents")
	}
}

// Property: accesses = hits + misses, and repeating any access pattern
// twice (within capacity) yields hits the second time for a large-enough
// cache.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, _, _ := newTestCache(t, Config{Sets: 256, Assoc: 4, LineWords: 4, WriteBack: true})
		for _, a := range addrs {
			c.Access(int32(a), a%3 == 0)
		}
		return c.Stats.Accesses == c.Stats.Hits+c.Stats.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetResidency(t *testing.T) {
	// A working set that fits must be fully resident on the second pass.
	c, _, _ := newTestCache(t, Config{Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true})
	for pass := 0; pass < 2; pass++ {
		for i := int32(0); i < 256; i++ { // 256 words = 1 KiB < 2 KiB
			c.Access(i, false)
		}
	}
	// Second pass: all 256 accesses hit.
	if c.Stats.Hits < 256+192 { // first pass: 64 misses + 192 hits
		t.Errorf("hits = %d, want >= 448", c.Stats.Hits)
	}
}

func TestAssocBound(t *testing.T) {
	lib := tech.Default()
	if _, err := New("x", Config{Sets: 1, Assoc: MaxAssoc + 1, LineWords: 4}, lib.Cache, nil, nil); err == nil {
		t.Errorf("associativity beyond MaxAssoc (%d) should be rejected", MaxAssoc)
	}
	if err := (Config{Sets: 1, Assoc: MaxAssoc, LineWords: 4}).Validate(); err != nil {
		t.Errorf("associativity MaxAssoc must validate: %v", err)
	}
}

func TestTagBitsPinned(t *testing.T) {
	// Pin the tag widths of the reference geometries and the largest
	// swept one: 32-bit byte address minus set-index and line-offset
	// fields. A float-log regression would shift these on large
	// power-of-two geometries.
	cases := []struct {
		cfg  Config
		want int
	}{
		{DefaultICache(), 21},                                 // 128 sets, 4-word lines: 32-7-2-2
		{DefaultDCache(), 22},                                 // 64 sets: 32-6-2-2
		{Config{Sets: 1024, Assoc: 8, LineWords: 4}, 18},      // largest swept: 32-10-2-2
		{Config{Sets: 1 << 20, Assoc: 1, LineWords: 256}, 2},  // 32-20-8-2
		{Config{Sets: 1 << 24, Assoc: 1, LineWords: 1024}, 1}, // floored at 1
	}
	for _, tc := range cases {
		if got := tc.cfg.TagBits(); got != tc.want {
			t.Errorf("TagBits(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestAccessEnergyMatchesFloatLogFormula(t *testing.T) {
	// The bit-twiddled AccessEnergy must be byte-identical to the float
	// formula it replaced on every power-of-two geometry.
	ct := tech.Default().Cache
	for _, sets := range []int{1, 16, 128, 1024, 1 << 16} {
		for _, lw := range []int{1, 4, 32} {
			cfg := Config{Sets: sets, Assoc: 2, LineWords: lw}
			tagBits := 32 - int(math.Log2(float64(sets))) - int(math.Log2(float64(lw))) - 2
			if tagBits < 1 {
				tagBits = 1
			}
			want := units.Energy(math.Log2(float64(sets)))*ct.EDecodePerSetLog2 +
				units.Energy(float64(tagBits*cfg.Assoc))*ct.ETagBit +
				units.Energy(float64(lw*32))*ct.EDataBit +
				ct.EOutputPerWord
			if got := cfg.AccessEnergy(ct); got != want {
				t.Errorf("AccessEnergy(%+v) = %v, want %v", cfg, got, want)
			}
		}
	}
}

func TestVictimFillsFirstInvalidWay(t *testing.T) {
	// Regression for the victim scan: it used to start the LRU compare
	// at way 1 and break on the first invalid way it met, so an empty
	// set filled way 1 first and left invalid ways interleaved behind
	// valid ones. Misses must fill ways in index order while any way is
	// invalid, and only a full set may evict (strictly the LRU way).
	c, _, _ := newTestCache(t, Config{Sets: 1, Assoc: 4, LineWords: 1, WriteBack: true})
	for i, addr := range []int32{10, 20, 30, 40} {
		c.Access(addr, false)
		for w := 0; w <= i; w++ {
			if !c.lines[w].valid {
				t.Fatalf("after %d fills, way %d is still invalid", i+1, w)
			}
		}
		for w := i + 1; w < 4; w++ {
			if c.lines[w].valid {
				t.Fatalf("after %d fills, way %d is valid early (fill out of order)", i+1, w)
			}
		}
	}
	if c.lines[0].tag != 10 {
		t.Errorf("way 0 holds tag %d, want the first fill (10)", c.lines[0].tag)
	}
	// No valid line may have been evicted while ways were free: every
	// fill must still hit.
	for _, addr := range []int32{10, 20, 30, 40} {
		if c.Access(addr, false); c.Stats.Misses != 4 {
			t.Fatalf("address %d was evicted while invalid ways remained", addr)
		}
	}
	// Full set: eviction is strictly LRU (10 is oldest by now).
	c.Access(50, false)
	c.Access(10, false)
	if c.Stats.Misses != 6 {
		t.Error("LRU way (tag 10) must have been the eviction victim")
	}
}

// TestNewFlatLinesZeroAlloc pins the flat line array: building a cache
// allocates the core and one array of Sets*Assoc lines, whatever the
// number of sets, for the default instruction and data geometries.
func TestNewFlatLinesZeroAlloc(t *testing.T) {
	ct := tech.Default().Cache
	for _, base := range []Config{DefaultICache(), DefaultDCache()} {
		for _, scale := range []int{1, 4, 64} {
			cfg := base
			cfg.Sets *= scale
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := New("c", cfg, ct, nil, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 2 {
				t.Errorf("New(%+v) makes %v allocations, want 2 (the core and its lines)", cfg, allocs)
			}
		}
	}
}
