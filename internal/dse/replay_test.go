package dse

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/memostore"
)

// FuzzDecodeMeasurement fuzzes the measurement phase as Prepare replays
// it from a store: the bytes a memostore hands back from disk, standing
// in for either of engine's two records (the measurement record and the
// sweep record; the codecs themselves are fuzzed in internal/system).
// Prepare may not panic or fail on any bytes. A record that does not
// decode reads as a miss and the cold run rewrites both records; either
// way the store is left holding records that a second Prepare replays
// warm, without a write, to the same baselines. A genuine record replays
// to the cold run's baselines. The seeds are the six applications'
// genuine records, each application's measurement record then its sweep
// record, and truncations of each.
func FuzzDecodeMeasurement(f *testing.F) {
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			f.Fatal(err)
		}
		mkey, skey, st := coldRecords(f, ir)
		for _, rec := range [][]byte{st.m[mkey], st.m[skey]} {
			f.Add(rec)
			f.Add(rec[:len(rec)-1])
			f.Add(rec[:len(rec)/2])
			f.Add(rec[:8])
		}
	}
	a, err := apps.ByName("engine")
	if err != nil {
		f.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		f.Fatal(err)
	}
	cold, err := Prepare(context.Background(), ir, Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	mkey, skey, genuine := coldRecords(f, ir)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, slot := range []memostore.Key{mkey, skey} {
			st := newRecordingStore()
			for k, b := range genuine.m {
				st.m[k] = b
			}
			st.m[slot] = data
			p, err := Prepare(context.Background(), ir, Config{Workers: 1, Store: st})
			if err != nil {
				t.Fatalf("slot %x: %v", slot, err)
			}
			if bytes.Equal(data, genuine.m[slot]) && !reflect.DeepEqual(p.Bases, cold.Bases) {
				t.Fatalf("slot %x: genuine record replays to different baselines", slot)
			}
			st.reset()
			again, err := Prepare(context.Background(), ir, Config{Workers: 1, Store: st})
			if err != nil {
				t.Fatalf("slot %x: second run: %v", slot, err)
			}
			if got := strings.Join(st.log, "; "); strings.Contains(got, "miss") || strings.Contains(got, "put") {
				t.Fatalf("slot %x: second run is not a warm replay: %s", slot, got)
			}
			if !reflect.DeepEqual(again.Bases, p.Bases) {
				t.Fatalf("slot %x: second run replays to different baselines", slot)
			}
		}
	})
}

// coldRecords runs Prepare on an empty store and returns the keys of
// the measurement record and the sweep record it wrote, and the store.
func coldRecords(tb testing.TB, ir *cdfg.Program) (mkey, skey memostore.Key, st *recordingStore) {
	tb.Helper()
	st = newRecordingStore()
	if _, err := Prepare(context.Background(), ir, Config{Workers: 1, Store: st}); err != nil {
		tb.Fatal(err)
	}
	// A cold Prepare writes the sweep record first, the measurement
	// record second.
	if got := strings.Join(st.shape, "; "); got != "get k0 miss; put k1; put k0" {
		tb.Fatalf("cold store sequence %q", got)
	}
	for k, n := range st.names {
		switch n {
		case "k0":
			mkey = k
		case "k1":
			skey = k
		}
	}
	return mkey, skey, st
}
