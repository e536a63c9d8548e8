// Persistent memoization of the exploration's measurement phase.
//
// An exploration's expensive front half — the ISS execution of the
// all-software design, which counts the block profile, with the online
// stack-distance geometry profiler teed in — is a pure function of
// (IR, memory map, anchor caches, instruction budget, technology
// library, geometry grid). With a Store attached, Prepare persists
// that half as two content-addressed records keyed by the program's
// system.Fingerprint: the initial-design measurement
// (system.Measurement, the record the greedy flow replays too) and the
// geometry sweep's reports. A warm run (same binary or a restarted
// one, another process opening the directory read-only, or a later lppartd
// job or partition on the same program at another F) skips straight to
// the search. The records hold raw IEEE-754 bit patterns and exact
// integers, so a warm frontier is byte-identical to a cold one; any
// missing, version-skewed or undecodable record silently falls back to
// the cold path and rewrites the records.
package dse

import (
	"context"
	"crypto/sha256"

	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/memostore"
	"lppart/internal/system"
	"lppart/internal/trace"
	"lppart/internal/units"
)

// measurement is everything the per-geometry searches consume from the
// measurement phase: the initial-design record shared with the greedy
// flow (anchor baseline, block profile) and the swept geometry reports
// (reps[0] is the anchor pair).
type measurement struct {
	*system.Measurement
	reps []trace.Report
}

// measure runs the measurement phase cold: one ISS execution of the
// initial design, with the block profile counted and every pair profiled
// online.
func measure(ctx context.Context, ir *cdfg.Program, sys system.Config, pairs [][2]cache.Config) (*measurement, error) {
	ev, base, reps, _, err := system.MeasureAndSweepCtx(ctx, ir, sys, pairs)
	if err != nil {
		return nil, err
	}
	return &measurement{Measurement: system.NewMeasurement(ev, base), reps: reps}, nil
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

// loadMeasurement returns the persisted measurement phase, or nil when
// either record is absent or undecodable (including store read errors —
// a sick store degrades to the cold path, it never fails the run).
func loadMeasurement(st system.Store, fp [32]byte, pairs [][2]cache.Config, sys system.Config) *measurement {
	ms := system.LoadMeasurement(st, system.MeasureKey(fp), sys)
	if ms == nil {
		return nil
	}
	sb, ok, err := st.Get(sweepKey(fp, pairs))
	if err != nil || !ok {
		return nil
	}
	reps := decodeReports(sb, pairs)
	if reps == nil {
		return nil
	}
	return &measurement{Measurement: ms, reps: reps}
}

// storeMeasurement persists the freshly measured phase. Write errors are
// swallowed: persistence is an accelerator, not a correctness dependency
// (and the store may legitimately be opened read-only). The sweep record
// goes first, so a reader that finds the measurement record, which
// loadMeasurement reads first, finds the sweep record too.
func storeMeasurement(st system.Store, fp [32]byte, pairs [][2]cache.Config, m *measurement) {
	_ = st.Put(sweepKey(fp, pairs), encodeReports(m.reps))                     //lint:err persistence is best-effort (see doc comment)
	_ = st.Put(system.MeasureKey(fp), system.EncodeMeasurement(m.Measurement)) //lint:err persistence is best-effort (see doc comment)
}
