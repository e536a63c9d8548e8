// Package sched implements the resource-constrained priority list
// scheduler the partitioning loop runs on every candidate cluster
// (paper Fig. 1 line 8: "do_list_schedule(c_i, rs_i)").
//
// Scheduling is per basic block: the operations of a block form a data
// flow graph (RAW/WAR/WAW dependencies on scalar slots plus ordering
// between memory operations on the same array), and the scheduler packs
// them into control steps so that at every step the number of operations
// executing on a resource kind never exceeds the designer's budget
// (tech.ResourceSet). Multi-cycle operations (multiplies, divides) occupy
// their resource for several consecutive steps.
//
// Kind selection happens at placement time: an operation that several
// resource kinds could execute (e.g. a compare, which fits both the
// comparator and the ALU) is placed on a kind already used in an earlier
// step when possible, otherwise on the smallest capable kind — the same
// preference order as Fig. 4's Sorted_RS_List, lifted from instance to
// type granularity (instance binding stays in the utilization algorithm).
//
// Constants are hardwired in an ASIC datapath and consume no step or
// resource; FSM state transitions (branches) are free. Loads and stores
// execute on memory ports (Config.MemPorts) rather than datapath
// resources, one cycle each.
package sched

import (
	"fmt"
	"sort"

	"lppart/internal/cdfg"
	"lppart/internal/scratch"
	"lppart/internal/tech"
)

// Config parameterizes the scheduler.
type Config struct {
	Lib *tech.Library
	RS  *tech.ResourceSet
	// MemPorts is the number of concurrent memory accesses per step;
	// 0 means the default of 2 (a dual-ported local buffer).
	MemPorts int
}

func (c Config) memPorts() int {
	if c.MemPorts <= 0 {
		return 2
	}
	return c.MemPorts
}

// PlacedOp is one scheduled operation.
type PlacedOp struct {
	Op    *cdfg.Op
	Class tech.OpClass
	// Kind is the resource kind the op was placed on; meaningless when
	// Mem is true.
	Kind tech.ResourceKind
	Mem  bool // executes on a memory port
	// Start is the first control step; Dur the number of steps occupied.
	Start, Dur int
}

// End returns the first step after the operation completes.
func (p *PlacedOp) End() int { return p.Start + p.Dur }

// BlockSchedule is the schedule of one basic block.
type BlockSchedule struct {
	Block *cdfg.Block
	Ops   []PlacedOp
	// Len is the block latency in control steps (at least 1: even an
	// empty block costs one FSM state).
	Len int
}

// RegionSchedule is the schedule of a whole cluster: one BlockSchedule per
// basic block of the region, in region block order.
type RegionSchedule struct {
	Region *cdfg.Region
	Blocks []*BlockSchedule
	Config Config
}

// TotalSteps returns the total number of control steps over all blocks
// (the FSM state count of the synthesized controller).
func (rs *RegionSchedule) TotalSteps() int {
	total := 0
	for _, b := range rs.Blocks {
		total += b.Len
	}
	return total
}

// UnschedulableError reports that a cluster cannot execute on a resource
// set (e.g. a divide with no divider in the budget).
type UnschedulableError struct {
	Op     *cdfg.Op
	Class  tech.OpClass
	RSName string
}

// Error implements the error interface.
func (e *UnschedulableError) Error() string {
	return fmt.Sprintf("sched: op %v (class %v) has no capable resource in set %s",
		e.Op.Code, e.Class, e.RSName)
}

// ScheduleRegion schedules every block of a cluster.
func ScheduleRegion(cfg Config, r *cdfg.Region) (*RegionSchedule, error) {
	if cfg.Lib == nil || cfg.RS == nil {
		return nil, fmt.Errorf("sched: config requires Lib and RS")
	}
	out := &RegionSchedule{Region: r, Config: cfg}
	out.Blocks = make([]*BlockSchedule, 0, len(r.Blocks))
	for _, bid := range r.Blocks {
		bs, err := ScheduleBlock(cfg, r.Func, r.Func.Block(bid))
		if err != nil {
			return nil, err
		}
		out.Blocks = append(out.Blocks, bs)
	}
	return out, nil
}

// node is an op plus its dependency bookkeeping during scheduling.
type node struct {
	op       *cdfg.Op
	class    tech.OpClass
	mem      bool
	dur      int // resolved after kind selection for datapath ops (max over kinds used for priority)
	succs    []int
	preds    int // count of unscheduled predecessors
	priority int // critical-path length to a sink
	placed   bool
}

// slotKey identifies a scalar or array slot for dependence tracking.
type slotKey struct {
	global bool
	id     int
}

// workspace is the reusable scratch state of one scheduling run: node and
// occupancy slabs plus the dependence-tracking maps of buildDFG. Instances
// are recycled through workspaces, so steady-state ScheduleBlock calls
// allocate only the BlockSchedule they return. Every field is reset
// before use, so recycling cannot affect results.
type workspace struct {
	nodes    []node
	order    []int
	earliest []int
	ready    []int
	idxOf    []int32 // op position in block -> node index, -1 if unscheduled
	useBuf   []cdfg.VarRef
	// usage[kind][step] and memUse[step] track occupancy; usageHi is the
	// first step beyond any recorded occupancy (the clear watermark).
	usage   [tech.NumResourceKinds][]int16
	memUse  []int16
	usageHi int

	// lastDef and lastStore map a slot to its last writer's node;
	// lastUses and loadsSince map it to its readers since, a list in
	// links given as 1 + its head's index (0: none).
	lastDef    map[slotKey]int
	lastUses   map[slotKey]int
	lastStore  map[slotKey]int
	loadsSince map[slotKey]int
	links      []link
}

// link is one entry of a reader list: a node and 1 + the index of the
// next entry (0 ends the list).
type link struct{ node, next int }

var workspaces = scratch.Pool[workspace]{New: func() *workspace {
	return &workspace{
		lastDef:    make(map[slotKey]int),
		lastUses:   make(map[slotKey]int),
		lastStore:  make(map[slotKey]int),
		loadsSince: make(map[slotKey]int),
	}
}}

// resetOccupancy prepares the step-indexed occupancy slabs for a block
// whose schedule cannot exceed maxSteps control steps. Only the previously
// dirtied prefix is cleared.
func (ws *workspace) resetOccupancy(maxSteps int) {
	need := maxSteps + 64 // headroom for multi-cycle ops past the last start
	for k := range ws.usage {
		if cap(ws.usage[k]) < need {
			ws.usage[k] = make([]int16, need) //lint:alloc slab growth to the high-water mark, then reused
			continue
		}
		u := ws.usage[k][:need]
		for t := 0; t < ws.usageHi && t < len(u); t++ {
			u[t] = 0
		}
		ws.usage[k] = u
	}
	if cap(ws.memUse) < need {
		ws.memUse = make([]int16, need) //lint:alloc slab growth to the high-water mark, then reused
	} else {
		m := ws.memUse[:need]
		for t := 0; t < ws.usageHi && t < len(m); t++ {
			m[t] = 0
		}
		ws.memUse = m
	}
	ws.usageHi = 0
}

// push prepends node ni to slot k's reader list in m. Lists are walked
// newest first; the edges a walk adds do not depend on the order.
func (ws *workspace) push(m map[slotKey]int, k slotKey, ni int) {
	ws.links = append(ws.links, link{ni, m[k]})
	m[k] = len(ws.links)
}

// note records that occupancy was written up to (but not including) step
// end, so the next resetOccupancy clears exactly the dirty prefix.
func (ws *workspace) note(end int) {
	if end > ws.usageHi {
		ws.usageHi = end
	}
}

// The ready list sorts by priority (descending), breaking ties by block
// position — the deterministic list-scheduling order. *workspace
// implements sort.Interface over ws.ready so sorting does not allocate.
func (ws *workspace) Len() int      { return len(ws.ready) }
func (ws *workspace) Swap(i, j int) { ws.ready[i], ws.ready[j] = ws.ready[j], ws.ready[i] }
func (ws *workspace) Less(i, j int) bool {
	a, b := ws.ready[i], ws.ready[j]
	if ws.nodes[a].priority != ws.nodes[b].priority {
		return ws.nodes[a].priority > ws.nodes[b].priority
	}
	return ws.order[a] < ws.order[b]
}

// ScheduleBlock schedules the datapath operations of one block.
//
//lint:hotpath the paper's Table 1 inner loop; kept allocation-free since PR 6
func ScheduleBlock(cfg Config, f *cdfg.Function, b *cdfg.Block) (*BlockSchedule, error) {
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	if err := ws.buildDFG(cfg, b); err != nil {
		return nil, err
	}
	nodes := ws.nodes
	bs := &BlockSchedule{Block: b} //lint:alloc the returned schedule, memoized by the evaluator
	if len(nodes) == 0 {
		bs.Len = 1
		return bs, nil
	}
	computePriorities(nodes)
	bs.Ops = make([]PlacedOp, 0, len(nodes)) //lint:alloc result buffer owned by the returned schedule

	// kindUsedBefore[k] = true once any op has been placed on kind k
	// (the "already instantiated in a previous control step" test).
	var kindUsedBefore [tech.NumResourceKinds]bool
	maxSteps := 64 * (len(nodes) + 4) // generous upper bound; placement is guaranteed below
	ws.resetOccupancy(maxSteps)
	earliest := ws.earliest[:0]
	for range nodes {
		earliest = append(earliest, 0)
	}
	ws.earliest = earliest

	scheduled := 0
	step := 0
	for scheduled < len(nodes) && step < maxSteps {
		// Collect ready ops: all preds done and data available by step.
		ws.ready = ws.ready[:0]
		for i := range nodes {
			n := &nodes[i]
			if !n.placed && n.preds == 0 && earliest[i] <= step {
				ws.ready = append(ws.ready, i)
			}
		}
		sort.Sort(ws)
		for _, i := range ws.ready {
			n := &nodes[i]
			if n.mem {
				if int(ws.memUse[step]) >= cfg.memPorts() {
					continue
				}
				ws.memUse[step]++
				ws.note(step + 1)
				place(nodes, earliest, i, step, 1)
				bs.Ops = append(bs.Ops, PlacedOp{Op: n.op, Class: n.class, Mem: true, Start: step, Dur: 1})
				scheduled++
				continue
			}
			kind, dur, ok := pickKind(cfg, n.class, step, ws, kindUsedBefore[:])
			if !ok {
				continue // all capable kinds saturated this step
			}
			u := ws.ensure(kind, step+dur)
			for t := step; t < step+dur; t++ {
				u[t]++
			}
			ws.note(step + dur)
			kindUsedBefore[kind] = true
			place(nodes, earliest, i, step, dur)
			bs.Ops = append(bs.Ops, PlacedOp{Op: n.op, Class: n.class, Kind: kind, Start: step, Dur: dur})
			scheduled++
		}
		step++
	}
	if scheduled < len(nodes) {
		return nil, fmt.Errorf("sched: block b%d did not converge (%d/%d ops)", b.ID, scheduled, len(nodes)) //lint:alloc error path
	}
	for i := range bs.Ops {
		if e := bs.Ops[i].End(); e > bs.Len {
			bs.Len = e
		}
	}
	if bs.Len == 0 {
		bs.Len = 1
	}
	return bs, nil
}

// place marks node i scheduled at [start,start+dur) and releases its
// successors.
func place(nodes []node, earliest []int, i, start, dur int) {
	n := &nodes[i]
	n.placed = true
	for _, s := range n.succs {
		nodes[s].preds--
		if e := start + dur; e > earliest[s] {
			earliest[s] = e
		}
	}
}

// ensure grows kind k's occupancy slab to cover steps [0,end) and returns
// it. The common path (builtin library, dur ≤ 64) never grows: the slabs
// are sized with headroom in resetOccupancy.
func (ws *workspace) ensure(k tech.ResourceKind, end int) []int16 {
	u := ws.usage[k]
	if end <= len(u) {
		return u
	}
	nu := make([]int16, end+64) //lint:alloc slab growth to the high-water mark, then reused
	copy(nu, u)
	ws.usage[k] = nu
	return nu
}

// pickKind selects the resource kind for an op of class c at the given
// step: prefer a kind already used before (Fig. 4 lines 7-13), then the
// smallest capable kind with spare capacity across the op's duration.
func pickKind(cfg Config, c tech.OpClass, step int, ws *workspace, usedBefore []bool) (tech.ResourceKind, int, bool) {
	kinds := cfg.Lib.Executors(c) // sorted by GEQ ascending
	try := func(k tech.ResourceKind) (int, bool) {
		limit := cfg.RS.Limit(k)
		if limit == 0 {
			return 0, false
		}
		dur := cfg.Lib.Resource(k).OpCycles(c)
		u := ws.ensure(k, step+dur)
		for t := step; t < step+dur; t++ {
			if int(u[t]) >= limit {
				return 0, false
			}
		}
		return dur, true
	}
	for _, k := range kinds {
		if !usedBefore[k] {
			continue
		}
		if dur, ok := try(k); ok {
			return k, dur, true
		}
	}
	for _, k := range kinds {
		if dur, ok := try(k); ok {
			return k, dur, true
		}
	}
	return 0, 0, false
}

// buildDFG constructs the intra-block dependence graph into ws.nodes and
// ws.order (order[i] is the op's position in the block, used as a
// deterministic tie-break), reusing the workspace's slabs and maps.
func (ws *workspace) buildDFG(cfg Config, b *cdfg.Block) error {
	ws.nodes = ws.nodes[:0]
	ws.order = ws.order[:0]
	ws.idxOf = ws.idxOf[:0]

	for pos := range b.Ops {
		op := &b.Ops[pos]
		class, ok := op.Code.Class()
		if !ok {
			ws.idxOf = append(ws.idxOf, -1)
			continue // const, nop, control: not scheduled
		}
		// A multiply with a compile-time-constant operand synthesizes to
		// a shift-add tree executable on an ALU, not a full multiplier.
		if class == tech.OpMul && (op.A.IsConst || op.B.IsConst) {
			class = tech.OpConstMul
		}
		mem := class == tech.OpMemory
		if !mem {
			// Verify at least one capable kind exists in the budget.
			feasible := false
			for _, k := range cfg.Lib.Executors(class) {
				if cfg.RS.Limit(k) > 0 {
					feasible = true
					break
				}
			}
			if !feasible {
				return &UnschedulableError{Op: op, Class: class, RSName: cfg.RS.Name} //lint:alloc error path
			}
		}
		ws.idxOf = append(ws.idxOf, int32(len(ws.nodes)))
		// Reuse a retired node slot when one is available so its succs
		// slice keeps its capacity across blocks.
		if len(ws.nodes) < cap(ws.nodes) {
			ws.nodes = ws.nodes[:len(ws.nodes)+1]
			n := &ws.nodes[len(ws.nodes)-1]
			n.op, n.class, n.mem = op, class, mem
			n.succs = n.succs[:0]
			n.dur, n.preds, n.priority = 0, 0, 0
			n.placed = false
		} else {
			ws.nodes = append(ws.nodes, node{op: op, class: class, mem: mem})
		}
		ws.order = append(ws.order, pos)
	}
	nodes := ws.nodes

	addEdge := func(from, to int) {
		if from == to {
			return
		}
		n := &nodes[from]
		for _, s := range n.succs {
			if s == to {
				return
			}
		}
		n.succs = append(n.succs, to)
		nodes[to].preds++
	}

	lastDef := ws.lastDef // node index of last writer
	lastUses := ws.lastUses
	lastStore := ws.lastStore
	loadsSince := ws.loadsSince
	clear(lastDef)
	clear(lastUses)
	clear(lastStore)
	clear(loadsSince)
	ws.links = ws.links[:0]
	// Values defined by unscheduled ops (consts) are always available;
	// values from scheduled ops create RAW edges. Walk ops in block
	// order, consulting only scheduled (node-mapped) producers.
	for pos := range b.Ops {
		op := &b.Ops[pos]
		ni, isNode := int(ws.idxOf[pos]), ws.idxOf[pos] >= 0
		// Reads. AppendUses into the workspace buffer: Uses() would
		// allocate a fresh slice per op, on every candidate schedule.
		ws.useBuf = op.AppendUses(ws.useBuf[:0])
		for _, u := range ws.useBuf {
			k := slotKey{u.Global, u.ID}
			if isNode {
				if d, ok := lastDef[k]; ok {
					addEdge(d, ni) // RAW
				}
				ws.push(lastUses, k, ni)
			}
		}
		if isNode && op.Code == cdfg.Load {
			ak := slotKey{op.Arr.Global, op.Arr.ID}
			if s, ok := lastStore[ak]; ok {
				addEdge(s, ni) // memory RAW
			}
			ws.push(loadsSince, ak, ni)
		}
		// Writes.
		if isNode && op.Code == cdfg.Store {
			ak := slotKey{op.Arr.Global, op.Arr.ID}
			if s, ok := lastStore[ak]; ok {
				addEdge(s, ni) // memory WAW
			}
			for j := loadsSince[ak]; j != 0; j = ws.links[j-1].next {
				addEdge(ws.links[j-1].node, ni) // memory WAR
			}
			loadsSince[ak] = 0
			lastStore[ak] = ni
		}
		if d := op.Def(); d.Valid() {
			k := slotKey{d.Global, d.ID}
			if isNode {
				if prev, ok := lastDef[k]; ok {
					addEdge(prev, ni) // WAW
				}
				for j := lastUses[k]; j != 0; j = ws.links[j-1].next {
					addEdge(ws.links[j-1].node, ni) // WAR
				}
				lastDef[k] = ni
				lastUses[k] = 0
			} else {
				// A const/copy-free def overwrites the slot: later
				// readers no longer depend on the previous producer.
				delete(lastDef, k)
				lastUses[k] = 0
			}
		}
	}

	// Worst-case duration per node for priority computation.
	for i := range nodes {
		n := &nodes[i]
		if n.mem {
			n.dur = 1
			continue
		}
		best := 0
		for _, k := range cfg.Lib.Executors(n.class) {
			if cfg.RS.Limit(k) > 0 {
				d := cfg.Lib.Resource(k).OpCycles(n.class)
				if best == 0 || d < best {
					best = d
				}
			}
		}
		n.dur = best
	}
	return nil
}

// computePriorities assigns each node its critical-path length to a sink
// (in cycles), the classic list-scheduling priority.
func computePriorities(nodes []node) {
	// Reverse topological order via repeated relaxation (graphs are tiny:
	// intra-block).
	changed := true
	for changed {
		changed = false
		for i := range nodes {
			n := &nodes[i]
			p := n.dur
			for _, s := range n.succs {
				if v := nodes[s].priority + n.dur; v > p {
					p = v
				}
			}
			if p > n.priority {
				n.priority = p
				changed = true
			}
		}
	}
}
