package asic

import (
	"fmt"

	"lppart/internal/tech"
)

// VerifyBinding checks a synthesized datapath against Fig. 4's own
// premises: instance binding must respect the kind-level budget the
// scheduler worked under, no instance may serve two operations in the
// same (global) control step, and the derived aggregates — utilization
// rate, hardware effort, clock — must be consistent with the instance
// list. partition.Config.Verify runs it on every fresh binding before
// the candidate enters selection.
func VerifyBinding(b *Binding, lib *tech.Library) error {
	if b == nil || b.Schedule == nil {
		return fmt.Errorf("asic: verify: nil binding or schedule")
	}
	if lib == nil {
		return fmt.Errorf("asic: verify: nil library")
	}
	rs := b.Schedule.Config.RS
	r := b.Schedule.Region
	fail := func(format string, args ...any) error {
		return fmt.Errorf("asic: verify: region %s: %s", r.Label, fmt.Sprintf(format, args...))
	}

	// Control-step accounting: Steps is the FSM state count over all
	// blocks.
	totalSteps := 0
	for _, bs := range b.Schedule.Blocks {
		totalSteps += bs.Len
	}
	if b.Steps != totalSteps {
		return fail("Steps=%d, block latencies sum to %d", b.Steps, totalSteps)
	}

	// Kind-level budget: Fig. 4 never instantiates beyond the scheduler's
	// resource set.
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		if n, limit := b.InstanceCount(k), rs.Limit(k); n > limit {
			return fail("%d instances of %v, budget %d", n, k, limit)
		}
	}

	// Placement coverage and per-instance exclusivity, replayed over the
	// same global step numbering Bind used (block latencies concatenated)
	// with one step bit-row per instance — deliberately not Bind's
	// free-at shortcut, whose premises are checked here instead.
	rowWords := (totalSteps + 63) / 64
	busy := make([]uint64, len(b.Instances)*rowWords)
	k := 0
	base := 0
	for _, bs := range b.Schedule.Blocks {
		for i := range bs.Ops {
			p := &bs.Ops[i]
			if k >= len(b.OpInst) {
				return fail("scheduled op %d has no placement", p.Op.ID)
			}
			inst := int(b.OpInst[k])
			k++
			if p.Start < 0 || p.Dur < 0 || p.End() > bs.Len {
				return fail("op %d at steps [%d,%d) outside block b%d of %d steps",
					p.Op.ID, p.Start, p.End(), bs.Block.ID, bs.Len)
			}
			if p.Mem {
				if inst != -1 {
					return fail("memory op %d bound to datapath instance %d", p.Op.ID, inst)
				}
				continue
			}
			if inst == -1 {
				return fail("scheduled op %d has no placement", p.Op.ID)
			}
			if inst < 0 || inst >= len(b.Instances) {
				return fail("op %d bound to missing instance %d", p.Op.ID, inst)
			}
			in := b.Instances[inst]
			if in.Kind != p.Kind {
				return fail("op %d kind mismatch: placed on %v, instance is %v", p.Op.ID, p.Kind, in.Kind)
			}
			row := busy[inst*rowWords : (inst+1)*rowWords]
			for s := base + p.Start; s < base+p.End(); s++ {
				if row[s/64]&(1<<(s%64)) != 0 {
					return fail("instance %v#%d serves op %d in step %d, already taken", in.Kind, in.Index, p.Op.ID, s)
				}
				row[s/64] |= 1 << (s % 64)
			}
		}
		base += bs.Len
	}
	if k != len(b.OpInst) {
		return fail("%d placements recorded, %d ops scheduled", len(b.OpInst), k)
	}

	// Aggregate consistency: utilization in [0,1] per Eq. 4, no instance
	// busier than the cluster itself, GEQ and clock derived from the
	// instance list.
	geqDatapath := 0
	for _, in := range b.Instances {
		if in.ActiveWeighted < 0 || in.ActiveWeighted > b.NcycWeighted {
			return fail("instance %v#%d active %d cycles of %d total",
				in.Kind, in.Index, in.ActiveWeighted, b.NcycWeighted)
		}
		geqDatapath += lib.Resource(in.Kind).GEQ
		if t := lib.Resource(in.Kind).Tcyc; b.Clock < t {
			return fail("clock %v faster than instantiated %v (%v)", b.Clock, in.Kind, t)
		}
	}
	if b.URate < 0 || b.URate > 1 {
		return fail("utilization rate %g outside [0,1]", b.URate)
	}
	if b.GEQDatapath != geqDatapath {
		return fail("datapath GEQ %d, instances sum to %d", b.GEQDatapath, geqDatapath)
	}
	if want := lib.ControllerGEQPerStep * b.Steps; b.GEQController != want {
		return fail("controller GEQ %d, %d steps require %d", b.GEQController, b.Steps, want)
	}
	if b.Clock < minClock {
		return fail("clock %v below controller floor %v", b.Clock, minClock)
	}
	return nil
}
