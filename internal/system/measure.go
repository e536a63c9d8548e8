package system

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sort"

	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/iss"
	"lppart/internal/memostore"
	"lppart/internal/partition"
	"lppart/internal/trace"
	"lppart/internal/units"
)

// The persisted measurement.
//
// The measurement front half of the Fig. 5 flow — the ISS run of the
// all-software design, which also counts the block profile and, for the
// explorer, profiles a cache-geometry grid online — is a pure function
// of (IR, cache geometries, memory map, instruction budget, technology
// library, geometry grid). It does not depend on F, the cluster budget
// or the resource sets. A Store attached to Config persists it as two
// content-addressed records keyed by the program's Fingerprint: the
// initial-design measurement under MeasureKey, which the greedy flow,
// the Pareto explorer and the exact solver all replay, and the geometry
// sweep's reports under a key that also names the grid. Measure is the
// one place that looks them up, takes them and writes them. Records hold
// raw IEEE-754 bit patterns and exact integers, so a replay is
// byte-identical to a cold run; a missing, version-skewed or
// undecodable record reads as a miss, and the cold run rewrites it.

// Store holds content-addressed measurement records. *memostore.Store
// implements it. Get's bytes are only read, so an implementation may
// hand out a slice it keeps; errors read as a miss (Get) or are ignored
// (Put), since the store only saves work.
type Store interface {
	Get(memostore.Key) ([]byte, bool, error)
	Put(memostore.Key, []byte) error
}

// measureRecVersion versions the record layout. Version 1 (no initial
// design breakdown, no globals digest, a %+v-rendered library in the
// key) is never read: its keys differ, so such records are cold misses.
const measureRecVersion = 2

// Fingerprint content-addresses the measurement: the defaulted
// configuration's measurement inputs (cache geometries, memory map,
// instruction budget, every technology-library field) followed by the
// canonical IR dump. The partitioning knobs (F, budgets, resource sets,
// core count) are deliberately not part of it.
func Fingerprint(ir *cdfg.Program, cfg Config) [32]byte {
	cfg.defaults()
	e := memostore.Enc{B: make([]byte, 0, 4096)}
	e.B = cfg.DCache.AppendKey(cfg.ICache.AppendKey(e.B))
	e.I64(int64(cfg.MemWords))
	e.I64(int64(cfg.StackWords))
	e.I64(cfg.MaxInstrs)
	e.B = cfg.Part.Lib.AppendKey(e.B)
	h := sha256.New()
	h.Write(e.B)
	// The prefix is self-delimiting, so the variable-length dump can
	// follow it unframed.
	_ = ir.WriteDump(h) //lint:err a hash.Hash never returns an error
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// MeasureKey is the measurement record's key for a Fingerprint.
func MeasureKey(fp [32]byte) memostore.Key {
	h := sha256.New()
	io.WriteString(h, "lppart/measure/v2\x00")
	h.Write(fp[:])
	var k memostore.Key
	h.Sum(k[:0])
	return k
}

// Measurement is the F-independent result of measuring the initial
// design: its per-core breakdown (the Table 1 "I" row), the
// partitioning Baseline derived from it, the block profile, and the
// SHA-256 of the design's final globals, against which a replayed
// evaluation cross-checks its partitioned design.
type Measurement struct {
	// Initial is the all-software design; its ISS is nil.
	Initial *Design
	Base    *partition.Baseline
	Profile *cdfg.Profile
	Globals [32]byte
}

// newMeasurement captures a measurement taken by MeasureInitialCtx (or
// one of its teed variants) as a record.
func newMeasurement(ev *Evaluation, base *partition.Baseline) *Measurement {
	d := *ev.Initial
	d.ISS = nil
	return &Measurement{Initial: &d, Base: base, Profile: ev.Profile,
		Globals: globalsDigest(ev.initialGlobals)}
}

// globalsDigest hashes global words as written by globalWords.
func globalsDigest(words []int32) [32]byte {
	b := make([]byte, 0, 4*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, uint32(w))
	}
	return sha256.Sum256(b)
}

// baseline derives the partitioning Baseline from a measured initial
// design, the same way for a cold run and a decoded record.
func baseline(initial *Design, regions map[int]*iss.RegionStat, cfg *Config) *partition.Baseline {
	return &partition.Baseline{
		TotalEnergy:        initial.Total(),
		MuPEnergy:          initial.EMuP,
		RestEnergy:         initial.EICache + initial.EDCache + initial.EMem + initial.EBus,
		TotalCycles:        initial.TotalCycles(),
		Regions:            regions,
		Micro:              &cfg.Part.Lib.Micro,
		ICacheAccessEnergy: cfg.ICache.AccessEnergy(cfg.Part.Lib.Cache),
	}
}

// EncodeMeasurement serializes the record. Maps are emitted in sorted
// key order, so the bytes are canonical.
func EncodeMeasurement(m *Measurement) []byte {
	e := &memostore.Enc{B: make([]byte, 0, 1024)}
	e.U64(measureRecVersion)
	d := m.Initial
	for _, v := range []units.Energy{d.EICache, d.EDCache, d.EMem, d.EBus, d.EMuP} {
		e.F64(float64(v))
	}
	e.I64(d.MuPCycles)
	for _, st := range []cache.Stats{d.IStats, d.DStats} {
		e.I64(st.Accesses)
		e.I64(st.Hits)
		e.I64(st.Misses)
		e.I64(st.WriteBacks)
	}
	e.Raw(m.Globals[:])

	regions := m.Base.Regions
	ids := make([]int, 0, len(regions))
	for id := range regions { //lint:ordered key collection, sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		rs := regions[id]
		e.I64(int64(id))
		e.I64(rs.Instrs)
		e.I64(rs.Cycles)
		e.F64(float64(rs.Energy))
		for _, a := range rs.Active {
			e.I64(a)
		}
	}

	freq := m.Profile.BlockFreq
	fns := make([]string, 0, len(freq))
	for fn := range freq { //lint:ordered key collection, sorted below
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	e.U64(uint64(len(fns)))
	for _, fn := range fns {
		e.Str(fn)
		e.U64(uint64(len(freq[fn])))
		for _, c := range freq[fn] {
			e.I64(c)
		}
	}
	return e.B
}

// DecodeMeasurement reconstructs a record under the configuration it
// was keyed by: the Baseline's µP model and i-cache access energy come
// from cfg (the key pins both). It returns nil when the bytes do not
// decode.
func DecodeMeasurement(buf []byte, cfg Config) *Measurement {
	cfg.defaults()
	dec := &memostore.Dec{B: buf}
	if dec.U64() != measureRecVersion {
		return nil
	}
	d := &Design{Name: "initial"}
	for _, v := range []*units.Energy{&d.EICache, &d.EDCache, &d.EMem, &d.EBus, &d.EMuP} {
		*v = units.Energy(dec.F64())
	}
	d.MuPCycles = dec.I64()
	for _, st := range []*cache.Stats{&d.IStats, &d.DStats} {
		st.Accesses = dec.I64()
		st.Hits = dec.I64()
		st.Misses = dec.I64()
		st.WriteBacks = dec.I64()
	}
	m := &Measurement{Initial: d, Profile: &cdfg.Profile{BlockFreq: map[string][]int64{}}}
	dec.Raw(m.Globals[:])

	nr := dec.Len()
	regions := make(map[int]*iss.RegionStat, nr)
	for i := 0; i < nr && !dec.Bad; i++ {
		id := int(dec.I64())
		rs := &iss.RegionStat{Instrs: dec.I64(), Cycles: dec.I64(), Energy: units.Energy(dec.F64())}
		for k := range rs.Active {
			rs.Active[k] = dec.I64()
		}
		regions[id] = rs
	}

	nf := dec.Len()
	for i := 0; i < nf && !dec.Bad; i++ {
		fn := dec.Str()
		freq := make([]int64, dec.Len())
		for j := range freq {
			freq[j] = dec.I64()
		}
		m.Profile.BlockFreq[fn] = freq
	}
	if dec.Bad || d.MuPCycles < 1 {
		return nil
	}
	m.Base = baseline(d, regions, &cfg)
	return m
}

// Measure returns the measurement of ir under cfg and, when pairs is
// non-empty, the reports of every (i-cache, d-cache) pair in input
// order. With cfg.Store set (and Part.Verify off) it first reads the
// measurement record and, with pairs, the sweep record; on any miss it
// runs the ISS once — with the geometry profiler teed in only when
// pairs is non-empty — and writes the sweep record, then the
// measurement record, so a reader that finds the measurement record,
// which it reads first, finds the sweep record too.
func Measure(ctx context.Context, ir *cdfg.Program, cfg Config, pairs [][2]cache.Config) (*Measurement, []trace.Report, error) {
	m, reps, ev, base, err := measure(ctx, ir, cfg, pairs, true)
	if m == nil && err == nil {
		m = newMeasurement(ev, base)
	}
	return m, reps, err
}

// measure is Measure, skipping the lookup unless read is set. A replay
// returns the stored record; a cold run returns its Evaluation and
// Baseline, and the record only when it built one to store it.
func measure(ctx context.Context, ir *cdfg.Program, cfg Config, pairs [][2]cache.Config, read bool) (
	m *Measurement, reps []trace.Report, ev *Evaluation, base *partition.Baseline, err error) {
	cfg.defaults()
	st := cfg.store()
	var fp [32]byte
	if st != nil {
		fp = Fingerprint(ir, cfg)
		if read {
			if m, reps = load(st, fp, pairs, cfg); m != nil {
				return m, reps, nil, nil, nil
			}
		}
	}
	if len(pairs) == 0 {
		ev, base, err = MeasureInitialCtx(ctx, ir, cfg)
	} else {
		ev, base, reps, _, err = MeasureAndSweepCtx(ctx, ir, cfg, pairs)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if st != nil {
		m = newMeasurement(ev, base)
		put(st, fp, pairs, m, reps)
	}
	return m, reps, ev, base, nil
}

// StoreMeasurement writes a measurement taken cold by MeasureInitialCtx
// or one of its teed variants to cfg.Store, under the key Measure looks
// it up by. Like Measure it writes nothing without a store or in Verify
// mode.
func StoreMeasurement(ir *cdfg.Program, cfg Config, ev *Evaluation, base *partition.Baseline) {
	if st := cfg.store(); st != nil {
		put(st, Fingerprint(ir, cfg), nil, newMeasurement(ev, base), nil)
	}
}

// store is the Store the measurement reads and writes: cfg.Store, or nil
// in Verify mode, since an audit must exercise the full live flow.
func (c *Config) store() Store {
	if c.Part.Verify {
		return nil
	}
	return c.Store
}

// load returns the stored measurement and, with pairs, the stored
// reports, or a nil Measurement when a record is absent or undecodable
// (a store read error reads as absent: a sick store degrades to the cold
// path, it never fails the run).
func load(st Store, fp [32]byte, pairs [][2]cache.Config, cfg Config) (*Measurement, []trace.Report) {
	b, ok, err := st.Get(MeasureKey(fp))
	if err != nil || !ok {
		return nil, nil
	}
	m := DecodeMeasurement(b, cfg)
	if m == nil || len(pairs) == 0 {
		return m, nil
	}
	if b, ok, err = st.Get(sweepKey(fp, pairs)); err != nil || !ok {
		return nil, nil
	}
	reps := decodeReports(b, pairs)
	if reps == nil {
		return nil, nil
	}
	return m, reps
}

// put writes the sweep record (with pairs), then the measurement record.
// Write errors are swallowed: persistence is an accelerator, not a
// correctness dependency, and the store may be opened read-only.
func put(st Store, fp [32]byte, pairs [][2]cache.Config, m *Measurement, reps []trace.Report) {
	if len(pairs) > 0 {
		_ = st.Put(sweepKey(fp, pairs), encodeReports(reps)) //lint:err persistence is best-effort (see put)
	}
	_ = st.Put(MeasureKey(fp), EncodeMeasurement(m)) //lint:err persistence is best-effort (see put)
}

const sweepRecVersion = 1

// sweepKey keys the sweep record on the measurement's fingerprint and
// the exact geometry grid.
func sweepKey(fp [32]byte, pairs [][2]cache.Config) memostore.Key {
	e := memostore.Enc{B: make([]byte, 0, 32+len(pairs)*64)}
	e.Str("lppart/dse/sweep/v2")
	e.Raw(fp[:])
	for _, pr := range pairs {
		e.B = pr[1].AppendKey(pr[0].AppendKey(e.B))
	}
	return sha256.Sum256(e.B)
}

func decodeCacheConfig(d *memostore.Dec) cache.Config {
	return cache.Config{
		Sets: int(d.I64()), Assoc: int(d.I64()), LineWords: int(d.I64()),
		WriteBack: d.I64() != 0,
	}
}

// encodeReports serializes the swept geometry reports in input order.
func encodeReports(reps []trace.Report) []byte {
	e := &memostore.Enc{B: make([]byte, 0, 64+len(reps)*160)}
	e.U64(sweepRecVersion)
	e.U64(uint64(len(reps)))
	for _, r := range reps {
		e.B = r.DCfg.AppendKey(r.ICfg.AppendKey(e.B))
		for _, st := range []cache.Stats{r.I, r.D} {
			e.I64(st.Accesses)
			e.I64(st.Hits)
			e.I64(st.Misses)
			e.I64(st.WriteBacks)
		}
		e.F64(float64(r.EICache))
		e.F64(float64(r.EDCache))
		e.F64(float64(r.EMem))
		e.F64(float64(r.EBus))
		e.I64(r.Stalls)
	}
	return e.B
}

// decodeReports rejects a record whose geometry list does not match the
// requested pairs exactly — a stale grid must recompute, never mis-map.
func decodeReports(buf []byte, pairs [][2]cache.Config) []trace.Report {
	d := &memostore.Dec{B: buf}
	if d.U64() != sweepRecVersion {
		return nil
	}
	n := d.U64()
	if d.Bad || n != uint64(len(pairs)) {
		return nil
	}
	reps := make([]trace.Report, n)
	for i := range reps {
		r := &reps[i]
		r.ICfg = decodeCacheConfig(d)
		r.DCfg = decodeCacheConfig(d)
		for _, st := range []*cache.Stats{&r.I, &r.D} {
			st.Accesses = d.I64()
			st.Hits = d.I64()
			st.Misses = d.I64()
			st.WriteBacks = d.I64()
		}
		r.EICache = units.Energy(d.F64())
		r.EDCache = units.Energy(d.F64())
		r.EMem = units.Energy(d.F64())
		r.EBus = units.Energy(d.F64())
		r.Stalls = d.I64()
		if d.Bad {
			return nil
		}
		want := pairs[i]
		want[1].WriteBack = true
		if r.ICfg != want[0] || r.DCfg != want[1] {
			return nil
		}
	}
	return reps
}
