package sched

import (
	"fmt"

	"lppart/internal/tech"
)

// VerifyIR checks the legality of a region schedule against the same
// dependence graph and resource budget the scheduler worked from — the
// runtime half of the paper's Fig. 1 "verify" step for line 8's list
// schedules. partition.Config.Verify runs it on every freshly scheduled
// (cluster, resource set) pair; the regression tests run it on hand-built
// bad IR.
//
// Checked invariants, per basic block:
//
//   - coverage: every schedulable operation of the block is placed
//     exactly once, with the class the dependence builder assigns
//     (including the constant-multiply → shift-add reclassification);
//   - precedence: for every RAW/WAR/WAW and memory dependence edge
//     a → b, b starts no earlier than a completes;
//   - resource capacity: at every control step, the number of
//     operations occupying a resource kind never exceeds the designer's
//     budget, and concurrent memory operations never exceed the port
//     count (Fig. 4's capacity premise for instance binding);
//   - durations: each placed operation occupies its kind for exactly
//     the library's cycle count, and the block latency equals the last
//     completion (at least one step).
func VerifyIR(rs *RegionSchedule) error {
	if rs == nil {
		return fmt.Errorf("sched: verify: nil schedule")
	}
	cfg := rs.Config
	if cfg.Lib == nil || cfg.RS == nil {
		return fmt.Errorf("sched: verify: schedule has no Lib/RS config")
	}
	if rs.Region == nil {
		return fmt.Errorf("sched: verify: schedule has no region")
	}
	if len(rs.Blocks) != len(rs.Region.Blocks) {
		return fmt.Errorf("sched: verify: region %s has %d blocks, schedule covers %d",
			rs.Region.Label, len(rs.Region.Blocks), len(rs.Blocks))
	}
	for i, bs := range rs.Blocks {
		if bs.Block.ID != rs.Region.Blocks[i] {
			return fmt.Errorf("sched: verify: schedule block %d is b%d, region lists b%d",
				i, bs.Block.ID, rs.Region.Blocks[i])
		}
		if err := verifyBlock(cfg, rs, bs); err != nil {
			return err
		}
	}
	return nil
}

// verifyBlock checks one block schedule.
func verifyBlock(cfg Config, rs *RegionSchedule, bs *BlockSchedule) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sched: verify: region %s block b%d: %s",
			rs.Region.Label, bs.Block.ID, fmt.Sprintf(format, args...))
	}
	// Re-derive the dependence graph the scheduler used.
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	if err := ws.buildDFG(cfg, bs.Block); err != nil {
		return fail("dependence graph: %v", err)
	}
	nodes := ws.nodes
	if len(bs.Ops) != len(nodes) {
		return fail("%d ops placed, %d schedulable", len(bs.Ops), len(nodes))
	}
	if len(nodes) == 0 {
		if bs.Len != 1 {
			return fail("empty block must cost one FSM state, Len=%d", bs.Len)
		}
		return nil
	}

	placedOf := make(map[int]*PlacedOp, len(bs.Ops)) // op ID -> placement
	for i := range bs.Ops {
		p := &bs.Ops[i]
		if _, dup := placedOf[p.Op.ID]; dup {
			return fail("op %d placed twice", p.Op.ID)
		}
		placedOf[p.Op.ID] = p
	}

	var usage [tech.NumResourceKinds]map[int]int
	for k := range usage {
		usage[k] = make(map[int]int)
	}
	memUse := make(map[int]int)
	maxEnd := 0
	for i := range nodes {
		n := &nodes[i]
		p := placedOf[n.op.ID]
		if p == nil {
			return fail("schedulable op %d (%v) missing from schedule", n.op.ID, n.op.Code)
		}
		if p.Class != n.class {
			return fail("op %d placed as class %v, dependence builder says %v",
				n.op.ID, p.Class, n.class)
		}
		if p.Mem != n.mem {
			return fail("op %d memory placement mismatch", n.op.ID)
		}
		if p.Start < 0 || p.Dur < 1 {
			return fail("op %d has illegal interval [%d,+%d)", n.op.ID, p.Start, p.Dur)
		}
		if e := p.End(); e > maxEnd {
			maxEnd = e
		}
		if p.Mem {
			if p.Dur != 1 {
				return fail("memory op %d occupies %d steps, want 1", n.op.ID, p.Dur)
			}
			memUse[p.Start]++
			continue
		}
		if cfg.RS.Limit(p.Kind) == 0 {
			return fail("op %d placed on kind %v absent from set %s",
				n.op.ID, p.Kind, cfg.RS.Name)
		}
		if want := cfg.Lib.Resource(p.Kind).OpCycles(p.Class); p.Dur != want {
			return fail("op %d on %v lasts %d steps, library says %d",
				n.op.ID, p.Kind, p.Dur, want)
		}
		for t := p.Start; t < p.End(); t++ {
			usage[p.Kind][t]++
		}
		// Precedence: successors must start after this op completes.
		for _, s := range n.succs {
			sp := placedOf[nodes[s].op.ID]
			if sp == nil {
				continue // reported above via coverage
			}
			if sp.Start < p.End() {
				return fail("dependence violated: op %d (ends %d) → op %d (starts %d)",
					n.op.ID, p.End(), nodes[s].op.ID, sp.Start)
			}
		}
	}

	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		limit := cfg.RS.Limit(k)
		for t, n := range usage[k] { //lint:ordered capacity check, no result is produced
			if n > limit {
				return fail("step %d uses %d of %v, budget %d", t, n, k, limit)
			}
		}
	}
	ports := cfg.memPorts()
	for t, n := range memUse { //lint:ordered capacity check, no result is produced
		if n > ports {
			return fail("step %d issues %d memory ops, ports %d", t, n, ports)
		}
	}
	if bs.Len != maxEnd {
		return fail("block latency %d, last completion %d", bs.Len, maxEnd)
	}
	return nil
}
