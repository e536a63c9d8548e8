// Package system evaluates whole designs: the µP core, instruction cache,
// data cache, main memory, bus and (for partitioned designs) ASIC cores,
// executing the application end to end and accounting every core's energy
// — "it is an important feature of our approach that all system
// components are taken into consideration to estimate energy savings"
// (paper §4). Its Evaluate function runs the complete design flow of
// Fig. 5: initial design measurement, whose ISS run also yields the block
// profile → partitioning → partitioned design co-simulation →
// verification.
package system

import (
	"context"
	"errors"
	"fmt"

	"lppart/internal/asic"
	"lppart/internal/behav"
	"lppart/internal/bus"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/isa"
	"lppart/internal/iss"
	"lppart/internal/mem"
	"lppart/internal/partition"
	"lppart/internal/tech"
	"lppart/internal/trace"
	"lppart/internal/units"
)

// Config parameterizes a system evaluation.
type Config struct {
	// Part configures the partitioning algorithm.
	Part partition.Config
	// ICache/DCache geometries; zero values select the defaults.
	ICache, DCache cache.Config
	// MemWords/StackWords size the µP's memory map; zero values select
	// codegen's defaults.
	MemWords, StackWords int
	// MaxInstrs bounds the ISS runs (500M instructions when 0). It also
	// sets the IR step limit, 200M when 0, which the ISS enforces over
	// the IR ops it runs. A program past the instruction limit runs on
	// to its end: it fails with the interpreter's text if it faults or
	// passes the step limit, and with the instruction limit's otherwise.
	// The step limit bounds that run: the ISS stops a stack that would
	// grow into the static data, and a return that does not follow a
	// call, as machine faults.
	MaxInstrs int64
	// Store, when non-nil, persists the measurement (see Measure). An
	// evaluation that finds the record skips the initial compile and ISS
	// run and goes straight to the Fig. 1 loop and the co-simulation; its
	// result is byte-identical to a cold run's, Initial.ISS aside.
	// Part.Verify bypasses the store: an audit must exercise the full
	// live flow. Never assign it a nil *memostore.Store: the typed nil is
	// a non-nil Store.
	Store Store
}

func (c *Config) defaults() {
	if c.ICache.Sets == 0 {
		c.ICache = cache.DefaultICache()
	}
	if c.DCache.Sets == 0 {
		c.DCache = cache.DefaultDCache()
	}
	if c.MemWords == 0 {
		c.MemWords = codegen.DefaultMemWords
	}
	if c.StackWords == 0 {
		c.StackWords = codegen.DefaultStackWords
	}
	if c.Part.Lib == nil {
		c.Part.Lib = tech.Default()
	}
}

// Design is one fully evaluated implementation — a pair of Table 1 rows'
// worth of numbers.
type Design struct {
	Name string
	// Energy per core.
	EICache, EDCache, EMem, EBus, EMuP, EASIC units.Energy
	// Execution time split.
	MuPCycles, ASICCycles int64
	// Detail. ISS is nil for an initial design replayed from a
	// Config.Store record.
	ISS    *iss.Result
	IStats cache.Stats
	DStats cache.Stats
	GEQ    int // ASIC hardware effort (0 for the initial design)
}

// Total is the whole-system energy (Table 1 "total" column; bus energy is
// folded into the memory subsystem as the paper's table does not list it
// separately).
func (d *Design) Total() units.Energy {
	return d.EICache + d.EDCache + d.EMem + d.EBus + d.EMuP + d.EASIC
}

// TotalCycles is the execution time in cycles.
func (d *Design) TotalCycles() int64 { return d.MuPCycles + d.ASICCycles }

// Evaluation is the complete outcome for one application.
type Evaluation struct {
	App         string
	IR          *cdfg.Program
	Initial     *Design
	Partitioned *Design // nil when no partition was chosen
	Decision    *partition.Decision
	// Profile holds the block frequencies the initial design's ISS run
	// counted.
	Profile *cdfg.Profile

	// initialGlobals holds the initial design's final global words in
	// ir.Globals order, kept for the differential memory verify against
	// the partitioned design.
	initialGlobals []int32
}

// Savings returns Table 1's "Sav%" (negative = saving).
func (e *Evaluation) Savings() float64 {
	if e.Partitioned == nil {
		return 0
	}
	return units.PercentChange(float64(e.Initial.Total()), float64(e.Partitioned.Total()))
}

// TimeChange returns Table 1's "Chg%" (negative = faster).
func (e *Evaluation) TimeChange() float64 {
	if e.Partitioned == nil {
		return 0
	}
	return units.PercentChange(float64(e.Initial.TotalCycles()), float64(e.Partitioned.TotalCycles()))
}

// memSys wires the ISS to the cache cores.
type memSys struct {
	ic, dc *cache.Cache
}

func (m *memSys) FetchInstr(byteAddr uint32) int { return m.ic.Access(int32(byteAddr/4), false) }
func (m *memSys) ReadData(addr int32) int        { return m.dc.Access(addr, false) }
func (m *memSys) WriteData(addr int32) int       { return m.dc.Access(addr, true) }

// teeMemSys simulates the caches AND feeds an observer (a trace recorder
// or an online cache profiler) in one pass. The observer sees exactly the
// access sequence a dedicated run would (the sequence is a pure function
// of the program), so measurement and observation share a single ISS
// execution; the observer's stall cycles are ignored.
type teeMemSys struct {
	ms  *memSys
	obs iss.MemSystem
}

func (t *teeMemSys) FetchInstr(byteAddr uint32) int {
	t.obs.FetchInstr(byteAddr)
	return t.ms.FetchInstr(byteAddr)
}

func (t *teeMemSys) ReadData(addr int32) int {
	t.obs.ReadData(addr)
	return t.ms.ReadData(addr)
}

func (t *teeMemSys) WriteData(addr int32) int {
	t.obs.WriteData(addr)
	return t.ms.WriteData(addr)
}

// runDesign executes one compiled program against fresh cache/memory/bus
// cores and collects the per-core accounting. A non-nil obs is teed into
// the memory system. A done ctx stops the run with ctx.Err().
func runDesign(ctx context.Context, name string, mp *isaProgram, cfg *Config, handler iss.ASICHandler,
	micro *tech.MicroprocessorSpec, obs iss.MemSystem) (*Design, *bus.Bus, *mem.Memory, error) {
	lib := cfg.Part.Lib
	b := bus.New(lib)
	m := mem.New(lib)
	ic, err := cache.New("i-cache", cfg.ICache, lib.Cache, m, b)
	if err != nil {
		return nil, nil, nil, err
	}
	dcfg := cfg.DCache
	dcfg.WriteBack = true
	dc, err := cache.New("d-cache", dcfg, lib.Cache, m, b)
	if err != nil {
		return nil, nil, nil, err
	}
	var sys iss.MemSystem = &memSys{ic: ic, dc: dc}
	if obs != nil {
		sys = &teeMemSys{ms: sys.(*memSys), obs: obs}
	}
	res, err := iss.RunCtx(ctx, mp.prog, iss.Options{
		Micro:     micro,
		Mem:       sys,
		ASIC:      handler,
		MaxInstrs: cfg.MaxInstrs,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dc.Flush()
	d := &Design{
		Name:      name,
		EICache:   ic.Energy(),
		EDCache:   dc.Energy(),
		EMem:      m.Energy(),
		EBus:      b.Energy(),
		EMuP:      res.Energy,
		MuPCycles: res.Cycles,
		ISS:       res,
		IStats:    ic.Stats,
		DStats:    dc.Stats,
	}
	return d, b, m, nil
}

// coreSet dispatches ASIC rendezvous instructions to their core.
type coreSet map[int32]*asic.Core

// RunASIC implements iss.ASICHandler over multiple cores.
func (cs coreSet) RunASIC(id int32, mem []int32) (int64, error) {
	core, ok := cs[id]
	if !ok {
		return 0, fmt.Errorf("system: no ASIC core %d", id)
	}
	return core.RunASIC(id, mem)
}

// isaProgram bundles a compiled program with its layout.
type isaProgram struct {
	prog *isa.Program
	lay  *codegen.Layout
}

// Evaluate runs the full design flow for one application: behavioral
// source → IR → profile → initial design → partitioning → partitioned
// design, with a functional cross-check between the two designs.
// Evaluate is safe for concurrent use: it mutates nothing reachable from
// its arguments.
func Evaluate(src *behav.Program, cfg Config) (*Evaluation, error) {
	return EvaluateCtx(context.Background(), src, cfg) //lint:ctx non-Ctx convenience wrapper
}

// EvaluateCtx is Evaluate with cancellation: a cancelled or
// deadline-expired ctx aborts the evaluation at its next stage boundary
// (or inside an ISS run) with ctx.Err().
func EvaluateCtx(ctx context.Context, src *behav.Program, cfg Config) (*Evaluation, error) {
	cfg.defaults()
	ir, err := cdfg.Build(src)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	return EvaluateIRCtx(ctx, ir, cfg)
}

// MeasureInitialCtx runs the measurement front half of the Fig. 5 flow —
// one ISS run of the initial (all-software) design, which also counts
// the block profile — and returns the partially-filled Evaluation (IR,
// Profile, Initial) together with the partitioning Baseline derived from
// the measured design. Evaluate continues from here into the greedy
// Fig. 1 loop; internal/dse's Pareto explorer continues into a
// branch-and-bound search instead, but judges every configuration
// against this same measured baseline.
func MeasureInitialCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, *partition.Baseline, error) {
	return measureCtx(ctx, ir, cfg, nil)
}

// MeasureAndRecordCtx is MeasureInitialCtx with a trace recorder teed into
// the initial design's memory system: one compile and one ISS execution
// yield both the measured baseline and the full memory-reference trace
// (instruction fetches, data reads and writes), the stream the replay
// oracle plays back.
func MeasureAndRecordCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, *partition.Baseline, *trace.Trace, error) {
	rec := &trace.Recorder{}
	ev, base, err := measureCtx(ctx, ir, cfg, rec)
	return ev, base, &rec.Trace, err
}

// MeasureAndSweepCtx is MeasureInitialCtx with an online cache profiler
// teed into the initial design's memory system: one compile and one ISS
// execution yield the measured baseline, the reports of every geometry
// pair in input order, and the reference stream's counts and compact-
// encoded size. Nothing is recorded; the reports are byte-identical to
// MeasureAndRecordCtx followed by a sweep of the recorded trace, and
// the Stream to the recorded trace's. A faulting program fails with the
// measurement's error text.
func MeasureAndSweepCtx(ctx context.Context, ir *cdfg.Program, cfg Config, pairs [][2]cache.Config) (*Evaluation, *partition.Baseline, []trace.Report, trace.Stream, error) {
	cfg.defaults()
	prof, err := trace.NewProfiler(pairs)
	if err != nil {
		return nil, nil, nil, trace.Stream{}, fmt.Errorf("system: geometry sweep: %w", err)
	}
	ev, base, err := measureCtx(ctx, ir, cfg, prof)
	if err != nil {
		return nil, nil, nil, trace.Stream{}, err
	}
	reps, err := prof.Reports(cfg.Part.Lib)
	if err != nil {
		return nil, nil, nil, trace.Stream{}, fmt.Errorf("system: geometry sweep: %w", err)
	}
	return ev, base, reps, prof.Stream(), nil
}

func measureCtx(ctx context.Context, ir *cdfg.Program, cfg Config, obs iss.MemSystem) (*Evaluation, *partition.Baseline, error) {
	cfg.defaults()
	lib := cfg.Part.Lib
	micro := &lib.Micro

	// Initial (all-software) design. Its ISS run is also the profiling
	// run (Fig. 5's profiler): it counts the IR block entries that become
	// #ex_times.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	full, fullLay, err := codegen.Compile(ir, codegen.Options{
		MemWords: cfg.MemWords, StackWords: cfg.StackWords})
	if err != nil {
		return nil, nil, failure(ctx, fmt.Errorf("system: compile: %w", err))
	}
	initial, _, _, err := runDesign(ctx, "initial", &isaProgram{prog: full, lay: fullLay}, &cfg, nil, micro, obs)
	if err != nil {
		var se *iss.SimError
		if errors.As(err, &se) {
			if re := runtimeError(ir, full, se); re != nil {
				return nil, nil, failure(ctx, fmt.Errorf("system: profiling: %w", re))
			}
		}
		return nil, nil, failure(ctx, fmt.Errorf("system: initial design: %w", err))
	}
	ev := &Evaluation{App: ir.Name, IR: ir, Initial: initial,
		Profile: blockProfile(ir, initial.ISS.BlockEntries)}
	// verify reads only the globals: keep a copy of them and hand the
	// ISS memory back for the next run.
	ev.initialGlobals = globalWords(ir, fullLay, initial.ISS.Mem)
	initial.ISS.Release()
	return ev, baseline(initial, initial.ISS.Regions, &cfg), nil
}

// blockProfile shapes the ISS's block entry counts, which are in program
// block order, into a per-function BlockFreq. The per-function slices
// share the counts' storage.
func blockProfile(ir *cdfg.Program, entries []int64) *cdfg.Profile {
	freq := make(map[string][]int64, len(ir.Funcs))
	off := 0
	for _, f := range ir.Funcs {
		n := len(f.Blocks)
		freq[f.Name] = entries[off : off+n : off+n]
		off += n
	}
	return &cdfg.Profile{BlockFreq: freq}
}

// failure is the error a failed measurement or co-simulation reports:
// err, or ctx's error once the request's ctx is done.
func failure(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// runtimeError names a fault of the initial design's ISS run the way the
// interpreter names it: the IR op it stands for, at that op's source
// position. It returns nil for a machine fault, which has no IR
// equivalent. The ISS stops the stack before it reaches the static data,
// so its memory holds the interpreter's values up to the fault, and an
// index, division or depth fault strikes where the interpreter traps. An index or division fault that struck after the step
// limit tripped in its segment reports whichever op comes first; the
// step check precedes an op's execution, so a tie is the step limit.
func runtimeError(ir *cdfg.Program, p *isa.Program, e *iss.SimError) *cdfg.RuntimeError {
	switch e.Kind {
	case iss.Depth:
		return &cdfg.RuntimeError{Msg: e.Msg}
	case iss.Step:
		_, b, i := codegen.SegmentOp(ir, p, e.PC, e.Op)
		return &cdfg.RuntimeError{Pos: b.Ops[i].Pos, Msg: e.Msg}
	case iss.Index, iss.Div:
		f, b, i := codegen.OpAt(ir, p, e.PC)
		if e.Trip != nil {
			if _, _, trip := codegen.SegmentOp(ir, p, e.Trip.PC, e.Trip.Op); trip <= i {
				return runtimeError(ir, p, e.Trip)
			}
		}
		msg := e.Msg
		if e.Kind == iss.Index {
			msg += " of " + ir.ArrName(f, b.Ops[i].Arr)
		}
		return &cdfg.RuntimeError{Pos: b.Ops[i].Pos, Msg: msg}
	}
	return nil
}

// EvaluateIRCtx is EvaluateCtx starting from already-built IR: ctx is
// checked at every stage boundary of the Fig. 5 flow (profile → initial
// design → partitioning → partitioned design) and threaded into the
// partitioner's cluster × resource-set fan-out, so a cancelled
// evaluation stops at the next boundary instead of running the flow to
// completion.
//
// With cfg.Store set (and Part.Verify off), a stored measurement of the
// program replaces the initial design's compile and ISS run. The
// replay's cross-check compares the partitioned design's globals with
// the record's digest; on a mismatch, or on any failure of the replay,
// the evaluation measures again without reading the store, rewrites the
// record and continues cold, so every result and every error is the
// cold run's.
func EvaluateIRCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, error) {
	cfg.defaults()
	m, _, ev, base, err := measure(ctx, ir, cfg, nil, true)
	if err != nil {
		return nil, err
	}
	if ev == nil {
		ev = &Evaluation{App: ir.Name, IR: ir, Initial: m.Initial, Profile: m.Profile}
		if err := partitionCtx(ctx, ev, m.Base, &cfg, func(lay *codegen.Layout, mem []int32) error {
			if globalsDigest(globalWords(ir, lay, mem)) != m.Globals {
				return errDigest
			}
			return nil
		}); err == nil {
			return ev, nil
		}
		if _, _, ev, base, err = measure(ctx, ir, cfg, nil, false); err != nil {
			return nil, err
		}
	}
	err = partitionCtx(ctx, ev, base, &cfg, func(lay *codegen.Layout, mem []int32) error {
		return verify(ir, ev.initialGlobals, lay, mem)
	})
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// errDigest rejects a replay whose partitioned globals do not hash to
// the stored digest.
var errDigest = errors.New("system: partitioned globals differ from the stored measurement's digest")

// partitionCtx continues a measured evaluation through the Fig. 1 loop
// and, when a partition is chosen, co-simulates the partitioned design
// and hands its final memory to check, the differential co-simulation
// cross-check against the initial design.
func partitionCtx(ctx context.Context, ev *Evaluation, base *partition.Baseline, cfg *Config,
	check func(lay *codegen.Layout, mem []int32) error) error {
	ir := ev.IR
	dec, err := partition.PartitionCtx(ctx, ir, ev.Profile, base, cfg.Part)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("system: partition: %w", err)
	}
	ev.Decision = dec
	if dec.Chosen == nil {
		return nil
	}

	// Partitioned design, co-simulated and cross-checked.
	if err := ctx.Err(); err != nil {
		return err
	}
	pd, partLay, err := runPartitioned(ctx, ir, dec, cfg)
	if err != nil {
		return failure(ctx, err)
	}
	ev.Partitioned = pd
	// The partitioned memory is needed only for the cross-check.
	defer pd.ISS.Release()
	if err := check(partLay, pd.ISS.Mem); err != nil {
		return fmt.Errorf("system: partitioned design diverged: %w", err)
	}
	return nil
}

// runPartitioned recompiles the program with the decision's cluster(s)
// excluded, builds one ASIC core per cluster and co-simulates the design.
// The returned design's ISS memory is still live; the layout locates its
// globals. A done ctx stops the co-simulation with an error wrapping
// ctx.Err().
func runPartitioned(ctx context.Context, ir *cdfg.Program, dec *partition.Decision, cfg *Config) (*Design, *codegen.Layout, error) {
	lib := cfg.Part.Lib
	exclude := make(map[int]int, len(dec.Choices))
	for i, ch := range dec.Choices {
		exclude[ch.Region.ID] = i
	}
	part, partLay, err := codegen.Compile(ir, codegen.Options{
		MemWords: cfg.MemWords, StackWords: cfg.StackWords,
		Exclude: exclude,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("system: partitioned compile: %w", err)
	}
	asicBus := bus.New(lib)
	asicMem := mem.New(lib)
	cores := make(coreSet, len(dec.Choices))
	totalGEQ := 0
	for i, ch := range dec.Choices {
		core, err := asic.NewCore(i, ir, ch.Region, ch.Binding,
			partLay, lib, asicBus, asicMem)
		if err != nil {
			return nil, nil, fmt.Errorf("system: ASIC core %d: %w", i, err)
		}
		cores[int32(i)] = core
		totalGEQ += ch.Eval.GEQ
	}
	pd, pb, pm, err := runDesign(ctx, "partitioned", &isaProgram{prog: part, lay: partLay}, cfg, cores, &lib.Micro, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("system: partitioned design: %w", err)
	}
	// Fold the ASIC's transfer traffic into the shared bus/memory cores.
	pd.EBus = pb.Energy() + asicBus.Energy()
	pd.EMem = pm.Energy() + asicMem.Energy()
	// Sum per-core energies in core-index order: float addition is not
	// associative, so map-order iteration would make the total's low bits
	// (and the byte-identical Table 1 contract) run-dependent.
	for i := range dec.Choices {
		pd.EASIC += cores[int32(i)].Energy
	}
	pd.ASICCycles = pd.ISS.ASICCycles
	pd.GEQ = totalGEQ
	return pd, partLay, nil
}

// globalWords copies every global's words out of a final memory, in
// ir.Globals order.
func globalWords(ir *cdfg.Program, lay *codegen.Layout, mem []int32) []int32 {
	n := int32(0)
	for gi := range ir.Globals {
		_, words, _ := lay.VarAddr(ir, "", true, gi)
		n += words
	}
	out := make([]int32, 0, n)
	for gi := range ir.Globals {
		addr, words, _ := lay.VarAddr(ir, "", true, gi)
		out = append(out, mem[addr:addr+words]...)
	}
	return out
}

// verify compares every global of a final memory against the initial
// design's globals (as copied by globalWords).
func verify(ir *cdfg.Program, initial []int32, lay *codegen.Layout, mem []int32) error {
	off := int32(0)
	for gi, g := range ir.Globals {
		addr, words, _ := lay.VarAddr(ir, "", true, gi)
		for w := int32(0); w < words; w++ {
			if a, b := initial[off+w], mem[addr+w]; a != b {
				return fmt.Errorf("global %s[%d]: initial=%d partitioned=%d", g.Name, w, a, b)
			}
		}
		off += words
	}
	return nil
}
