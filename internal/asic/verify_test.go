package asic

import (
	"strings"
	"testing"

	"lppart/internal/tech"
)

// boundFIR builds, schedules and binds the FIR kernel, asserting the
// fresh binding passes VerifyBinding before the caller tampers with it.
func boundFIR(t *testing.T) (*Binding, *tech.Library) {
	t.Helper()
	_, loop, rsched, prof := buildScheduled(t, firSrc)
	lib := tech.Default()
	b, err := Bind(rsched, lib, func(bid int) int64 {
		return prof.BlockCount(loop.Func, bid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBinding(b, lib); err != nil {
		t.Fatalf("fresh binding fails VerifyBinding: %v", err)
	}
	return b, lib
}

func wantBindingError(t *testing.T, b *Binding, lib *tech.Library, substr string) {
	t.Helper()
	err := VerifyBinding(b, lib)
	if err == nil {
		t.Fatalf("VerifyBinding accepted bad binding, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("VerifyBinding error %q does not mention %q", err, substr)
	}
}

func TestVerifyBindingNilInputs(t *testing.T) {
	b, lib := boundFIR(t)
	if VerifyBinding(nil, lib) == nil {
		t.Error("nil binding must fail")
	}
	if VerifyBinding(b, nil) == nil {
		t.Error("nil library must fail")
	}
}

func TestVerifyBindingDetectsDoubleBooking(t *testing.T) {
	b, lib := boundFIR(t)
	// Rebind every op of the second instance of some kind onto that
	// kind's first instance: the ops that needed the second instance now
	// collide in a control step.
	first := map[tech.ResourceKind]int32{}
	for idx, in := range b.Instances {
		if in.Index == 0 {
			first[in.Kind] = int32(idx)
			continue
		}
		for k, inst := range b.OpInst {
			if inst == int32(idx) {
				b.OpInst[k] = first[in.Kind]
			}
		}
		wantBindingError(t, b, lib, "already taken")
		return
	}
	t.Fatal("FIR binding has no kind with two instances; nothing to double-book")
}

func TestVerifyBindingDetectsUtilizationOutOfRange(t *testing.T) {
	b, lib := boundFIR(t)
	b.URate = 1.25
	wantBindingError(t, b, lib, "outside [0,1]")
}

func TestVerifyBindingDetectsOveractiveInstance(t *testing.T) {
	b, lib := boundFIR(t)
	b.Instances[0].ActiveWeighted = b.NcycWeighted + 1
	wantBindingError(t, b, lib, "active")
}

func TestVerifyBindingDetectsGEQMismatch(t *testing.T) {
	b, lib := boundFIR(t)
	b.GEQDatapath += 50
	wantBindingError(t, b, lib, "instances sum")
}

func TestVerifyBindingDetectsStepMiscount(t *testing.T) {
	b, lib := boundFIR(t)
	b.Steps++
	// GEQController is consistent with the old Steps, but the step count
	// no longer matches the schedule.
	wantBindingError(t, b, lib, "latencies sum")
}

func TestVerifyBindingDetectsMissingPlacement(t *testing.T) {
	t.Run("unbound datapath op", func(t *testing.T) {
		b, lib := boundFIR(t)
		k := 0
		for _, bs := range b.Schedule.Blocks {
			for i := range bs.Ops {
				if !bs.Ops[i].Mem {
					b.OpInst[k] = -1
					wantBindingError(t, b, lib, "no placement")
					return
				}
				k++
			}
		}
		t.Fatal("FIR binding has no datapath op")
	})
	t.Run("truncated", func(t *testing.T) {
		b, lib := boundFIR(t)
		b.OpInst = b.OpInst[:len(b.OpInst)-1]
		wantBindingError(t, b, lib, "no placement")
	})
}

func TestVerifyBindingDetectsSlowInstanceClock(t *testing.T) {
	b, lib := boundFIR(t)
	b.Clock = minClock / 2
	wantBindingError(t, b, lib, "clock")
}

func TestVerifyBindingDetectsMemoryOpOnInstance(t *testing.T) {
	b, lib := boundFIR(t)
	k := 0
	for _, bs := range b.Schedule.Blocks {
		for i := range bs.Ops {
			if bs.Ops[i].Mem {
				b.OpInst[k] = 0
				wantBindingError(t, b, lib, "memory op")
				return
			}
			k++
		}
	}
	t.Fatal("FIR binding has no memory op")
}

func TestVerifyBindingDetectsOpPastItsBlock(t *testing.T) {
	b, lib := boundFIR(t)
	bs := b.Schedule.Blocks[len(b.Schedule.Blocks)-1]
	bs.Ops[len(bs.Ops)-1].Dur = bs.Len + 1
	wantBindingError(t, b, lib, "outside block")
}
