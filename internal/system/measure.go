package system

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sort"

	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/iss"
	"lppart/internal/memostore"
	"lppart/internal/partition"
	"lppart/internal/units"
)

// The persisted initial-design measurement.
//
// The measurement front half of the Fig. 5 flow — the ISS run of the
// all-software design, which also counts the block profile — is a pure
// function of (IR, cache geometries, memory map, instruction budget,
// technology library). It does not depend on F, the cluster budget or
// the resource sets. A Store attached to Config (or to dse.Config)
// persists it as one content-addressed record under MeasureKey, so the
// greedy flow, the Pareto explorer and the exact solver all replay one
// record per program. Records hold raw IEEE-754 bit patterns and exact
// integers, so a replay is byte-identical to a cold run; a missing,
// version-skewed or undecodable record reads as a miss, and the cold
// run rewrites it.

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

// NewMeasurement captures a measurement taken by MeasureInitialCtx (or
// one of its teed variants) as a record.
func NewMeasurement(ev *Evaluation, base *partition.Baseline) *Measurement {
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

// LoadMeasurement returns the record stored under key, or nil when it is
// absent or undecodable (a store read error reads as absent: a sick
// store degrades to the cold path, it never fails the run).
func LoadMeasurement(st Store, key memostore.Key, cfg Config) *Measurement {
	b, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil
	}
	return DecodeMeasurement(b, cfg)
}
