package trace

import (
	"lppart/internal/bus"
	"lppart/internal/cache"
	"lppart/internal/mem"
	"lppart/internal/stackdist"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// Profiler is the cache profiler of the sweeps: it prices every geometry
// pair of a grid from one pass over a reference stream. Pairs are
// grouped by (i-line, d-line) size, and each group keeps one
// stack-distance profiler per stream covering all of the group's set
// counts and associativities.
//
// The stream can come from a recorded trace (Trace.Scan drives it)
// or straight from an ISS run: Profiler implements iss.MemSystem,
// reporting no stall cycles, so it can observe the run alongside the
// memory system that does the timing without the stream ever being
// stored. An observed run is also counted (Stream), as its recording
// would have been.
type Profiler struct {
	pairs  [][2]cache.Config
	groups []profGroup
	enc    encoder
}

// profGroup is one line-size group with its i- and d-stream profilers.
type profGroup struct {
	idx    []int // positions in the profiler's pairs
	ip, dp *stackdist.Profiler
}

// NewProfiler validates pairs and builds the profilers for them. Data
// caches are priced as write-back.
func NewProfiler(pairs [][2]cache.Config) (*Profiler, error) {
	p := &Profiler{pairs: pairs}
	for _, g := range groupPairs(pairs) {
		var iSets, dSets []int
		iAssoc, dAssoc := 0, 0
		for _, pi := range g.idx {
			icfg, dcfg := pairs[pi][0], pairs[pi][1]
			dcfg.WriteBack = true
			if err := icfg.Validate(); err != nil {
				return nil, err
			}
			if err := dcfg.Validate(); err != nil {
				return nil, err
			}
			iSets = appendUnique(iSets, icfg.Sets)
			dSets = appendUnique(dSets, dcfg.Sets)
			iAssoc = max(iAssoc, icfg.Assoc)
			dAssoc = max(dAssoc, dcfg.Assoc)
		}
		ip, err := stackdist.New(g.iLW, iSets, iAssoc, false)
		if err != nil {
			return nil, err
		}
		dp, err := stackdist.New(g.dLW, dSets, dAssoc, true)
		if err != nil {
			return nil, err
		}
		p.groups = append(p.groups, profGroup{idx: g.idx, ip: ip, dp: dp})
	}
	return p, nil
}

// access profiles one reference in every line-size group.
//
//lint:hotpath called once per memory reference of the profiled run
func (p *Profiler) access(k Kind, addr int32) {
	for i := range p.groups {
		g := &p.groups[i]
		switch k {
		case Fetch:
			g.ip.Access(addr, false)
		case Read:
			g.dp.Access(addr, false)
		case Write:
			g.dp.Access(addr, true)
		}
	}
}

// observe counts and profiles one reference of an observed run.
//
//lint:hotpath called once per memory reference of the profiled run
func (p *Profiler) observe(k Kind, addr int32) {
	p.enc.encode(k, addr)
	p.access(k, addr)
}

// FetchInstr profiles an instruction fetch.
func (p *Profiler) FetchInstr(byteAddr uint32) int {
	p.observe(Fetch, int32(byteAddr/4))
	return 0
}

// ReadData profiles a data load.
func (p *Profiler) ReadData(addr int32) int {
	p.observe(Read, addr)
	return 0
}

// WriteData profiles a data store.
func (p *Profiler) WriteData(addr int32) int {
	p.observe(Write, addr)
	return 0
}

// Stream returns the counts and compact-encoded size of the run the
// profiler has observed so far.
func (p *Profiler) Stream() Stream { return p.enc.stream() }

// Reports prices every pair from the stream profiled so far and returns
// the reports in input order, byte-identical to Replay's over the same
// stream.
func (p *Profiler) Reports(lib *tech.Library) ([]Report, error) {
	out := make([]Report, len(p.pairs))
	for _, g := range p.groups {
		for _, pi := range g.idx {
			icfg, dcfg := p.pairs[pi][0], p.pairs[pi][1]
			is, err := g.ip.Stats(icfg.Sets, icfg.Assoc)
			if err != nil {
				return nil, err
			}
			ds, err := g.dp.Stats(dcfg.Sets, dcfg.Assoc)
			if err != nil {
				return nil, err
			}
			out[pi] = synthesize(icfg, dcfg, lib, is, ds)
		}
	}
	return out, nil
}

// synthesize prices one geometry pair's profiled Stats exactly as
// Replay's live cores would have: the same integer traffic counts feed
// the same float expressions, so the report is byte-identical to a
// replay's.
func synthesize(icfg, dcfg cache.Config, lib *tech.Library, is, ds cache.Stats) Report {
	dcfg.WriteBack = true
	readWords := icfg.RefillWords(is.Misses) + dcfg.RefillWords(ds.Misses)
	writeWords := dcfg.WriteBackWords(ds.WriteBacks)
	m := mem.Memory{T: lib.Memory, Reads: readWords, Writes: writeWords}
	b := bus.Bus{T: lib.Bus, ReadWords: readWords, WriteWords: writeWords}
	return Report{
		ICfg: icfg, DCfg: dcfg,
		I: is, D: ds,
		EICache: units.Energy(float64(is.Accesses)) * icfg.AccessEnergy(lib.Cache),
		EDCache: units.Energy(float64(ds.Accesses)) * dcfg.AccessEnergy(lib.Cache),
		EMem:    m.Energy(),
		EBus:    b.Energy(),
		Stalls: icfg.MissStalls(lib.Memory, is.Misses, 0) +
			dcfg.MissStalls(lib.Memory, ds.Misses, ds.WriteBacks),
	}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
