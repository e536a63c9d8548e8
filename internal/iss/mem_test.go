package iss

import (
	"fmt"
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

// reader loads word 101, which it never writes: every program must see
// the zero it starts from there, even in a buffer a writer dirtied.
var reader = asm(
	isa.Instr{Op: isa.LD, Rd: isa.RV, Rs1: isa.Zero, Imm: 101},
	isa.Instr{Op: isa.HALT},
)

func TestReleasedMemoryIsZeroedOnReuse(t *testing.T) {
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

	// Writers and readers on eight goroutines share the recycled
	// memories: no reader may see a word another goroutine's writer left.
	const workers, rounds = 8, 50
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func() {
			for i := 0; i < rounds; i++ {
				w, err := Run(writeGlobals(), Options{})
				if err != nil {
					errs <- err
					return
				}
				w.Release()
				r, err := Run(reader, Options{})
				if err != nil {
					errs <- err
					return
				}
				rv, m100 := r.RV, r.Mem[100]
				r.Release()
				if rv != 0 || m100 != 0 {
					errs <- fmt.Errorf("round %d: reused memory reads %#x, %#x, want 0, 0", i, rv, m100)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestTooSmallMemoryIsHandedBack checks that Run keeps a released
// memory too small for the program at hand for a later, smaller one.
func TestTooSmallMemoryIsHandedBack(t *testing.T) {
	for mems.Get() != nil { // start from an empty recycler
	}
	sized := func(words int) *Result {
		p := writeGlobals()
		p.MemWords = words
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := sized(1 << 10)
	smallMem := &small.Mem[0]
	small.Release()
	big := sized(1 << 11)
	defer big.Release()
	if len(big.Mem) != 1<<11 {
		t.Fatalf("a %d-word program ran on %d words", 1<<11, len(big.Mem))
	}
	again := sized(1 << 10)
	defer again.Release()
	if &again.Mem[0] != smallMem {
		t.Error("a released small memory was dropped when a bigger program could not use it")
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

// warmAlloc reports the bytes allocated per call of run after a warm-up
// call.
func warmAlloc(run func()) float64 {
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// bigProgram is writeGlobals on the system's default memory map, 4 MiB.
func bigProgram() *isa.Program {
	p := writeGlobals()
	p.MemWords = 1 << 20
	return p
}

func TestISSMemoryReuseZeroAlloc(t *testing.T) {
	p := bigProgram()
	perRun := warmAlloc(func() {
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	t.Logf("%.0f B allocated per warm run", perRun)
	if perRun >= 1<<20 {
		t.Errorf("warm Run allocates %.0f B per run, want well under 1 MiB (memory is 4 MiB)", perRun)
	}
}

// TestISSMemorySurvivesGCZeroAlloc checks that a released memory
// outlives two garbage collections, which empty a bare sync.Pool, and
// serves a run on another goroutine, which may sit on another P.
func TestISSMemorySurvivesGCZeroAlloc(t *testing.T) {
	p := bigProgram()
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	runtime.GC()
	runtime.GC()
	done := make(chan error)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		res, err := Run(p, Options{})
		res.Release()
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated by the run after two GCs", got)
	if got >= 1<<20 {
		t.Errorf("Run after two GCs allocates %d B, want well under 1 MiB (memory is 4 MiB)", got)
	}
}
