package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/iss"
	"lppart/internal/tech"
)

// record runs a small program under the recorder.
func record(t *testing.T, src string) *Trace {
	t.Helper()
	prog := behav.MustParse("t", src)
	ir := cdfg.MustBuild(prog)
	mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	if _, err := iss.Run(mp, iss.Options{Mem: rec}); err != nil {
		t.Fatal(err)
	}
	return &rec.Trace
}

const walker = `
var a[512]; var s;
func main() {
	var i;
	for i = 0; i < 512; i = i + 1 { a[i] = i; }
	for i = 0; i < 512; i = i + 1 { s = s + a[i]; }
}
`

func TestRecorderCapturesReferences(t *testing.T) {
	tr := record(t, walker)
	st := tr.Stream()
	fetches, reads, writes := st.Fetches, st.Reads, st.Writes
	if fetches == 0 || reads == 0 || writes == 0 {
		t.Fatalf("trace incomplete: f=%d r=%d w=%d", fetches, reads, writes)
	}
	// Every executed instruction produces exactly one fetch; the walker
	// writes at least 512 array elements and reads at least 512 back.
	if writes < 512 {
		t.Errorf("writes = %d, want >= 512", writes)
	}
	if reads < 512 {
		t.Errorf("reads = %d, want >= 512", reads)
	}
	if tr.Len() != fetches+reads+writes {
		t.Error("counts do not partition the trace")
	}
}

func TestCompactRoundTrip(t *testing.T) {
	// The compact encoding must reproduce an arbitrary access sequence
	// exactly, across chunk boundaries.
	type access struct {
		Kind Kind
		Addr int32
	}
	rng := rand.New(rand.NewSource(3))
	var c Compact
	var want []access
	addr := int32(0)
	for i := 0; i < 200000; i++ {
		k := Kind(rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			addr = int32(rng.Uint32()) // arbitrary jump, negatives included
		default:
			addr += int32(rng.Intn(64)) - 16
		}
		want = append(want, access{Kind: k, Addr: addr})
		c.Append(k, addr)
	}
	if c.Len() != int64(len(want)) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	stored := int64(len(c.cur))
	for _, ch := range c.chunks {
		stored += int64(len(ch))
	}
	if c.Bytes() != stored {
		t.Fatalf("Bytes = %d, want the %d bytes stored", c.Bytes(), stored)
	}
	i := 0
	c.Scan(func(k Kind, a int32) {
		if want[i].Kind != k || want[i].Addr != a {
			t.Fatalf("Scan access %d: got (%v, %d), want %+v", i, k, a, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("Scan yielded %d accesses, want %d", i, len(want))
	}
}

func TestCompactIsCompact(t *testing.T) {
	// A real application trace must encode well below the 8 bytes per
	// access of a plain (kind, address) slice.
	tr := record(t, walker)
	bytesPer := float64(tr.Bytes()) / float64(tr.Len())
	t.Logf("compact: %d accesses in %d bytes (%.2f bytes/access, %.1fx vs a plain slice)",
		tr.Len(), tr.Bytes(), bytesPer, 8/bytesPer)
	if bytesPer > 4 {
		t.Errorf("compact encoding too large: %.2f bytes/access, want <= 4", bytesPer)
	}
}

func TestReplayMatchesLiveSimulation(t *testing.T) {
	// Replaying the recorded trace against the same geometry must give
	// the same cache statistics as simulating live with those caches.
	prog := behav.MustParse("t", walker)
	ir := cdfg.MustBuild(prog)
	mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	lib := tech.Default()

	// Live simulation.
	liveI, _ := cache.New("i", cache.DefaultICache(), lib.Cache, nil, nil)
	liveD, _ := cache.New("d", cache.DefaultDCache(), lib.Cache, nil, nil)
	rec := &Recorder{}
	if _, err := iss.Run(mp, iss.Options{Mem: tee{rec, &liveMem{liveI, liveD}}}); err != nil {
		t.Fatal(err)
	}
	liveD.Flush()

	rep, err := rec.Trace.Replay(cache.DefaultICache(), cache.DefaultDCache(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if rep.I.Hits != liveI.Stats.Hits || rep.I.Misses != liveI.Stats.Misses {
		t.Errorf("i-cache replay %+v != live %+v", rep.I, liveI.Stats)
	}
	if rep.D.Hits != liveD.Stats.Hits || rep.D.Misses != liveD.Stats.Misses {
		t.Errorf("d-cache replay %+v != live %+v", rep.D, liveD.Stats)
	}
}

type liveMem struct{ ic, dc *cache.Cache }

// tee feeds every reference to both memory systems and passes the
// second one's stall cycles through.
type tee struct{ a, b iss.MemSystem }

func (t tee) FetchInstr(a uint32) int { t.a.FetchInstr(a); return t.b.FetchInstr(a) }
func (t tee) ReadData(a int32) int    { t.a.ReadData(a); return t.b.ReadData(a) }
func (t tee) WriteData(a int32) int   { t.a.WriteData(a); return t.b.WriteData(a) }

func (m *liveMem) FetchInstr(a uint32) int { return m.ic.Access(int32(a/4), false) }
func (m *liveMem) ReadData(a int32) int    { return m.dc.Access(a, false) }
func (m *liveMem) WriteData(a int32) int   { return m.dc.Access(a, true) }

func TestSweepMonotoneCapacity(t *testing.T) {
	// Growing the data cache can only improve (or hold) its hit rate on
	// a recorded trace.
	tr := record(t, walker)
	lib := tech.Default()
	pairs := [][2]cache.Config{
		{cache.DefaultICache(), {Sets: 16, Assoc: 1, LineWords: 4, WriteBack: true}},
		{cache.DefaultICache(), {Sets: 64, Assoc: 1, LineWords: 4, WriteBack: true}},
		{cache.DefaultICache(), {Sets: 256, Assoc: 1, LineWords: 4, WriteBack: true}},
	}
	reps, err := tr.SweepParallel(pairs, lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].D.HitRate() < reps[i-1].D.HitRate()-1e-12 {
			t.Errorf("d-cache hit rate dropped when growing: %.4f -> %.4f",
				reps[i-1].D.HitRate(), reps[i].D.HitRate())
		}
	}
	// Stalls shrink with capacity too (same line size, more sets).
	if reps[2].Stalls > reps[0].Stalls {
		t.Errorf("stalls grew with capacity: %d -> %d", reps[0].Stalls, reps[2].Stalls)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	tr := record(t, walker)
	lib := tech.Default()
	var pairs [][2]cache.Config
	for _, sets := range []int{16, 64, 256} {
		pairs = append(pairs, [2]cache.Config{
			cache.DefaultICache(),
			{Sets: sets, Assoc: 2, LineWords: 4, WriteBack: true},
		})
	}
	serial, err := tr.SweepParallel(pairs, lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := tr.SweepParallel(pairs, lib, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Errorf("workers=%d pair %d: parallel report %v != serial %v",
					workers, i, par[i], serial[i])
			}
		}
	}
}

// profGrid is the ≥24-point geometry grid of the differential tests: six
// d-cache set counts × four ways, one shared line size.
func profGrid() [][2]cache.Config {
	var pairs [][2]cache.Config
	for _, sets := range []int{16, 32, 64, 128, 256, 512} {
		for _, assoc := range []int{1, 2, 4, 8} {
			pairs = append(pairs, [2]cache.Config{
				cache.DefaultICache(),
				{Sets: sets, Assoc: assoc, LineWords: 4, WriteBack: true},
			})
		}
	}
	return pairs
}

// TestSweepStackMatchesReplayAllApps is the tentpole differential: for
// all six benchmark applications, the single-pass stack-distance sweep
// must produce reports byte-identical to the naive replay oracle over a
// 24-point geometry grid, at one and at eight workers.
func TestSweepStackMatchesReplayAllApps(t *testing.T) {
	lib := tech.Default()
	pairs := profGrid()
	for _, a := range apps.All() {
		src, err := a.Parse()
		if err != nil {
			t.Fatal(err)
		}
		ir := cdfg.MustBuild(src)
		mp, _, err := codegen.Compile(ir, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := &Recorder{}
		if _, err := iss.Run(mp, iss.Options{Mem: rec}); err != nil {
			t.Fatal(err)
		}
		tr := &rec.Trace
		oracle, err := tr.SweepReplay(pairs, lib, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			got, err := tr.SweepParallel(pairs, lib, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Errorf("%s workers=%d pair %d (%v/%v):\n  stack  %+v\n  replay %+v",
						a.Name, workers, i, pairs[i][0], pairs[i][1], got[i], oracle[i])
				}
			}
		}
	}
}

// TestSweepSinglePass measures (via the trace's scan counter) that a
// sweep over a grid sharing one line size costs exactly ONE pass over
// the recorded stream, and that the grid is wide enough to beat naive
// replay by the required ≥3x trace-access-visit margin.
func TestSweepSinglePass(t *testing.T) {
	tr := record(t, walker)
	lib := tech.Default()
	pairs := profGrid()
	if want := 1; Passes(pairs) != want {
		t.Fatalf("Passes = %d, want %d", Passes(pairs), want)
	}
	if len(pairs) < 3*Passes(pairs) {
		t.Fatalf("grid too small for the 3x margin: %d pairs, %d passes", len(pairs), Passes(pairs))
	}
	before := tr.Scans()
	reps, err := tr.SweepParallel(pairs, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Scans() - before; got != int64(Passes(pairs)) {
		t.Errorf("sweep scanned the trace %d times, want %d", got, Passes(pairs))
	}
	if len(reps) != len(pairs) {
		t.Fatalf("%d reports for %d pairs", len(reps), len(pairs))
	}

	// Mixed line sizes: one pass per distinct (i, d) line-size combo.
	mixed := [][2]cache.Config{
		{cache.DefaultICache(), {Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true}},
		{cache.DefaultICache(), {Sets: 64, Assoc: 2, LineWords: 8, WriteBack: true}},
		{cache.DefaultICache(), {Sets: 128, Assoc: 1, LineWords: 8, WriteBack: true}},
		{{Sets: 64, Assoc: 1, LineWords: 8}, {Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true}},
	}
	if want := 3; Passes(mixed) != want {
		t.Fatalf("mixed-grid Passes = %d, want %d", Passes(mixed), want)
	}
	before = tr.Scans()
	got, err := tr.SweepParallel(mixed, lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Scans() - before; n != int64(Passes(mixed)) {
		t.Errorf("mixed sweep scanned %d times, want %d", n, Passes(mixed))
	}
	oracle, err := tr.SweepReplay(mixed, lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Errorf("mixed pair %d: stack %+v != replay %+v", i, got[i], oracle[i])
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr := record(t, walker)
	lib := tech.Default()
	r1, err := tr.Replay(cache.DefaultICache(), cache.DefaultDCache(), lib)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tr.Replay(cache.DefaultICache(), cache.DefaultDCache(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("replay is not deterministic")
	}
	if r1.Total() <= 0 {
		t.Error("replay energy must be positive")
	}
	if r1.String() == "" {
		t.Error("empty report string")
	}
}

func TestReplayRejectsBadGeometry(t *testing.T) {
	tr := record(t, walker)
	lib := tech.Default()
	if _, err := tr.Replay(cache.Config{Sets: 3, Assoc: 1, LineWords: 4},
		cache.DefaultDCache(), lib); err == nil {
		t.Error("bad geometry must be rejected")
	}
	// The stack sweep must reject the same geometries Replay does.
	if _, err := tr.SweepParallel([][2]cache.Config{
		{{Sets: 3, Assoc: 1, LineWords: 4}, cache.DefaultDCache()},
	}, lib, 1); err == nil {
		t.Error("sweep must reject bad geometry")
	}
	if _, err := tr.SweepParallel([][2]cache.Config{
		{cache.DefaultICache(), {Sets: 64, Assoc: cache.MaxAssoc + 1, LineWords: 4}},
	}, lib, 1); err == nil {
		t.Error("sweep must reject out-of-bounds associativity")
	}
}

// TestProfilerOnlineMatchesSweep: a Profiler observing the ISS run
// directly must price every pair exactly as a sweep of the recorded
// trace, one line-size group or several, and count the stream as the
// recording stored it.
func TestProfilerOnlineMatchesSweep(t *testing.T) {
	prog := behav.MustParse("t", walker)
	ir := cdfg.MustBuild(prog)
	mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	lib := tech.Default()
	pairs := append(profGrid(),
		[2]cache.Config{cache.DefaultICache(), {Sets: 64, Assoc: 2, LineWords: 8, WriteBack: true}},
		[2]cache.Config{{Sets: 64, Assoc: 1, LineWords: 8}, {Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true}},
	)
	prof, err := NewProfiler(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	if _, err := iss.Run(mp, iss.Options{Mem: tee{rec, prof}}); err != nil {
		t.Fatal(err)
	}
	got, err := prof.Reports(lib)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Trace.SweepParallel(pairs, lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d: online %+v != recorded %+v", i, got[i], want[i])
		}
	}
	if got, want := prof.Stream(), rec.Trace.Stream(); got != want {
		t.Errorf("online stream %+v != recorded %+v", got, want)
	}
	if _, err := NewProfiler([][2]cache.Config{{{Sets: 3, Assoc: 1, LineWords: 4}, cache.DefaultDCache()}}); err == nil {
		t.Error("NewProfiler must reject a bad geometry")
	}
}

// TestGrid pins the one-cache sweep grid both /v1/sweep and cacheprof
// build: sets-major order, the swept cache write-back only on the d
// side, the other cache at its default, and the first invalid value's
// error text, which /v1/sweep returns in its 400 body.
func TestGrid(t *testing.T) {
	pairs, err := Grid([]int{16, 64}, []int{1, 2}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]cache.Config
	for _, s := range []int{16, 64} {
		for _, a := range []int{1, 2} {
			want = append(want, [2]cache.Config{cache.DefaultICache(),
				{Sets: s, Assoc: a, LineWords: 8, WriteBack: true}})
		}
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("d-sweep grid %v, want %v", pairs, want)
	}
	pairs, err = Grid([]int{32}, []int{4}, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if w := [2]cache.Config{{Sets: 32, Assoc: 4, LineWords: 16}, cache.DefaultDCache()}; len(pairs) != 1 || pairs[0] != w {
		t.Errorf("i-sweep grid %v, want [%v]", pairs, w)
	}
	for _, tc := range []struct {
		sets, assoc []int
		line        int
		want        string
	}{
		{[]int{16, 48}, []int{1}, 4, "sets: 48 is not a positive power of two"},
		{[]int{16}, []int{1, 0}, 4, "assoc: 0 out of range [1, 65536]"},
		{[]int{16}, []int{1}, 3, "geometry sets=16 assoc=1 line=3: "},
	} {
		_, err := Grid(tc.sets, tc.assoc, tc.line, false)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Grid(%v, %v, %d) error %v, want %q", tc.sets, tc.assoc, tc.line, err, tc.want)
		}
	}
}
