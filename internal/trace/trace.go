// Package trace implements the trace tool and cache profiler of the
// paper's design flow (Fig. 5: "Trace Tool" feeding a "Cache Profiler",
// after [17] WARTS): it evaluates any number of cache geometries against
// the exact instruction-fetch and data reference stream of ONE ISS run,
// without re-simulating the program per geometry — the standard
// trace-driven methodology for tuning the cache cores to a chosen
// partition ("those other cores have to be adapted efficiently (e.g.
// size of memory, size of caches, cache policy etc.) according to the
// particular hw/sw partitioning chosen", paper §1).
//
// The cache profiler (Profiler) runs the single-pass stack-distance
// profilers of internal/stackdist: one pass per distinct line size
// covers every (Sets, Assoc) combination. Every production sweep runs it
// online: it observes the measurement's ISS run directly as an
// iss.MemSystem, in the spirit of an on-chip profiler, and counts the
// stream (Stream) without storing it. The recorded half — a Recorder
// storing the stream delta+varint-encoded in chunks (Compact), which
// SweepParallel scans once per line-size group and Replay plays once
// per geometry — is the differential-testing oracle, and the stage
// attribution of the benchmark harness.
package trace

import (
	"fmt"

	"lppart/internal/bus"
	"lppart/internal/cache"
	"lppart/internal/explore"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// Kind classifies one recorded reference.
type Kind uint8

// Reference kinds.
const (
	Fetch Kind = iota // instruction fetch (word address)
	Read              // data load
	Write             // data store
)

// String names the reference kind.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Read:
		return "read"
	default:
		return "write"
	}
}

// Trace is a recorded reference stream in compact storage.
type Trace struct {
	Compact
}

// Recorder implements iss.MemSystem: it appends every reference to the
// trace and reports no stall cycles.
type Recorder struct {
	Trace Trace
}

// FetchInstr records an instruction fetch.
func (r *Recorder) FetchInstr(byteAddr uint32) int {
	r.Trace.Append(Fetch, int32(byteAddr/4))
	return 0
}

// ReadData records a data load.
func (r *Recorder) ReadData(addr int32) int {
	r.Trace.Append(Read, addr)
	return 0
}

// WriteData records a data store.
func (r *Recorder) WriteData(addr int32) int {
	r.Trace.Append(Write, addr)
	return 0
}

// Report is the outcome of evaluating the trace against one cache pair.
type Report struct {
	ICfg, DCfg cache.Config
	I, D       cache.Stats
	// Energy breakdown: cache arrays, memory, bus.
	EICache, EDCache, EMem, EBus units.Energy
	// Stalls is the total extra cycles the geometry would have cost.
	Stalls int64
}

// Total returns the memory-subsystem energy of the evaluation.
func (r Report) Total() units.Energy { return r.EICache + r.EDCache + r.EMem + r.EBus }

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("i$ %5dB %.4f hit | d$ %5dB %.4f hit | E %v | stalls %d",
		r.ICfg.SizeBytes(), r.I.HitRate(), r.DCfg.SizeBytes(), r.D.HitRate(),
		r.Total(), r.Stalls)
}

// Replay runs the trace against one instruction/data cache pair backed by
// fresh memory and bus cores — one full trace pass per geometry pair.
// The geometry sweeps use the single-pass profiler instead; Replay is the
// oracle they are differentially tested against.
func (t *Trace) Replay(icfg, dcfg cache.Config, lib *tech.Library) (Report, error) {
	m := mem.New(lib)
	b := bus.New(lib)
	dcfg.WriteBack = true
	ic, err := cache.New("i-replay", icfg, lib.Cache, m, b)
	if err != nil {
		return Report{}, err
	}
	dc, err := cache.New("d-replay", dcfg, lib.Cache, m, b)
	if err != nil {
		return Report{}, err
	}
	var stalls int64
	t.Scan(func(k Kind, addr int32) {
		switch k {
		case Fetch:
			stalls += int64(ic.Access(addr, false))
		case Read:
			stalls += int64(dc.Access(addr, false))
		case Write:
			stalls += int64(dc.Access(addr, true))
		}
	})
	stalls += int64(dc.Flush())
	return Report{
		ICfg: icfg, DCfg: dcfg,
		I: ic.Stats, D: dc.Stats,
		EICache: ic.Energy(), EDCache: dc.Energy(),
		EMem: m.Energy(), EBus: b.Energy(),
		Stalls: stalls,
	}, nil
}

// sweepGroup is the unit of single-pass profiling: every geometry pair
// sharing one (i-line, d-line) size combination profiles from one pass.
type sweepGroup struct {
	iLW, dLW int
	idx      []int // positions in the caller's pairs slice
}

// groupPairs buckets pairs by line size in first-seen order.
func groupPairs(pairs [][2]cache.Config) []sweepGroup {
	var groups []sweepGroup
	byLW := map[[2]int]int{}
	for i, pr := range pairs {
		key := [2]int{pr[0].LineWords, pr[1].LineWords}
		gi, ok := byLW[key]
		if !ok {
			gi = len(groups)
			byLW[key] = gi
			groups = append(groups, sweepGroup{iLW: key[0], dLW: key[1]})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}
	return groups
}

// Passes returns the number of trace passes a sweep of pairs performs:
// one single-pass profiler run per distinct (i-line, d-line) size
// combination, versus one pass per pair for a naive replay sweep.
func Passes(pairs [][2]cache.Config) int { return len(groupPairs(pairs)) }

// Grid builds the geometry pairs of a one-cache sweep: every (sets,
// assoc) combination, sets-major, at lineWords words per line. The swept
// cache is the i-cache when isweep is set and the write-back d-cache
// otherwise; the other cache keeps its default geometry. The first
// invalid value is the error.
func Grid(sets, assoc []int, lineWords int, isweep bool) ([][2]cache.Config, error) {
	var pairs [][2]cache.Config
	for _, s := range sets {
		if s <= 0 || s&(s-1) != 0 {
			return nil, fmt.Errorf("sets: %d is not a positive power of two", s)
		}
		for _, a := range assoc {
			if a <= 0 || a > cache.MaxAssoc {
				return nil, fmt.Errorf("assoc: %d out of range [1, %d]", a, cache.MaxAssoc)
			}
			swept := cache.Config{Sets: s, Assoc: a, LineWords: lineWords}
			icfg, dcfg := cache.DefaultICache(), cache.DefaultDCache()
			if isweep {
				icfg = swept
			} else {
				swept.WriteBack = true
				dcfg = swept
			}
			if err := swept.Validate(); err != nil {
				return nil, fmt.Errorf("geometry sets=%d assoc=%d line=%d: %w", s, a, lineWords, err)
			}
			pairs = append(pairs, [2]cache.Config{icfg, dcfg})
		}
	}
	return pairs, nil
}

// SweepParallel evaluates the trace against every geometry pair using the
// single-pass stack-distance profiler: pairs are grouped by line size,
// each group costs ONE pass over the recorded stream (simultaneously
// profiling every set count and associativity in the group, i- and
// d-stream alike), and the groups fan out on a bounded worker pool
// (workers <= 0 selects one worker per CPU). Reports come back in input
// order, byte-identical to Replay's at any worker count.
func (t *Trace) SweepParallel(pairs [][2]cache.Config, lib *tech.Library, workers int) ([]Report, error) {
	groups := groupPairs(pairs)
	grouped, err := explore.Map(workers, groups, func(_ int, g sweepGroup) ([]Report, error) {
		return t.profileGroup(g, pairs, lib)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Report, len(pairs))
	for gi, g := range groups {
		for j, pi := range g.idx {
			out[pi] = grouped[gi][j]
		}
	}
	return out, nil
}

// SweepReplay evaluates every pair by an independent full replay — the
// naive G-pass path the single-pass profiler replaced, retained as the
// differential-testing oracle and benchmark baseline.
func (t *Trace) SweepReplay(pairs [][2]cache.Config, lib *tech.Library, workers int) ([]Report, error) {
	return explore.Map(workers, pairs, func(_ int, pr [2]cache.Config) (Report, error) {
		return t.Replay(pr[0], pr[1], lib)
	})
}

// profileGroup profiles one line-size group of pairs in one pass over the
// trace and returns its reports in g.idx order.
func (t *Trace) profileGroup(g sweepGroup, pairs [][2]cache.Config, lib *tech.Library) ([]Report, error) {
	sub := make([][2]cache.Config, len(g.idx))
	for j, pi := range g.idx {
		sub[j] = pairs[pi]
	}
	p, err := NewProfiler(sub)
	if err != nil {
		return nil, err
	}
	t.Scan(p.access)
	return p.Reports(lib)
}
