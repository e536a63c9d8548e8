package iss

import (
	"runtime"
	"testing"

	"lppart/internal/isa"
)

// writeGlobals stores marker values into two global words.
func writeGlobals() *isa.Program {
	return asm(
		isa.Instr{Op: isa.LI, Rd: 8, Imm: 0xABCD},
		isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: 8, Imm: 100},
		isa.Instr{Op: isa.ST, Rs1: isa.Zero, Rs2: 8, Imm: 101},
		isa.Instr{Op: isa.HALT},
	)
}

func TestReleasedMemoryIsZeroedOnReuse(t *testing.T) {
	// The reader never writes word 101, so it must see the zero every
	// program starts from, even in a buffer the writer dirtied.
	reader := asm(
		isa.Instr{Op: isa.LD, Rd: isa.RV, Rs1: isa.Zero, Imm: 101},
		isa.Instr{Op: isa.HALT},
	)
	reused := false
	for i := 0; i < 20; i++ {
		w, err := Run(writeGlobals(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dirty := &w.Mem[0]
		w.Release()
		r, err := Run(reader, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.RV != 0 {
			t.Fatalf("run %d: untouched global reads %#x, want 0", i, r.RV)
		}
		reused = reused || &r.Mem[0] == dirty
		r.Release()
	}
	if !reused {
		t.Error("no run reused a released buffer")
	}
}

func TestReleaseNilSafeAndIdempotent(t *testing.T) {
	var nilRes *Result
	nilRes.Release()

	res, err := Run(writeGlobals(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[100] != 0xABCD {
		t.Fatalf("mem[100] = %#x before Release", res.Mem[100])
	}
	res.Release()
	res.Release()
	if res.Mem != nil {
		t.Error("Mem not nil after Release")
	}
	if res.Instrs != 3 {
		t.Errorf("Release touched the statistics: instrs = %d", res.Instrs)
	}
}

func TestISSMemoryReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	p := writeGlobals()
	p.MemWords = 1 << 20 // the system's default memory map, 4 MiB
	run := func() {
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	// sync.Pool caches per P, and a goroutine that moves to another P
	// misses the buffer it just put back. One P keeps every Get where
	// the last Put was, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B allocated per warm run", perRun)
	if perRun >= 1<<20 {
		t.Errorf("warm Run allocates %.0f B per run, want well under 1 MiB (memory is 4 MiB)", perRun)
	}
}
