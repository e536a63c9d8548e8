package dse

import (
	"bytes"
	"context"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/system"
)

// FuzzDecodeMeasurement fuzzes the measurement phase as Prepare
// persists it, the bytes a memostore hands back from disk: the shared
// initial-design record (system.DecodeMeasurement, fuzzed on its own in
// internal/system) and dse's sweep record. Neither decoder may panic,
// and any record that decodes must re-encode to a record that decodes
// again and re-encodes to the same bytes. The encodings store every
// field, floats as raw bit patterns, so equal encodings are equal
// records. The seeds are the six applications' genuine records, which
// must round-trip byte-exactly, and truncations of them.
func FuzzDecodeMeasurement(f *testing.F) {
	var sys system.Config
	// The measured grid of a default Prepare: the anchor pair, then the
	// default geometries.
	pairs := append([][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}, DefaultGeometries()...)
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			f.Fatal(err)
		}
		m, err := measure(context.Background(), ir, sys, pairs)
		if err != nil {
			f.Fatal(err)
		}
		mrec, srec := system.EncodeMeasurement(m.Measurement), encodeReports(m.reps)
		if got := system.DecodeMeasurement(mrec, sys); got == nil || !bytes.Equal(system.EncodeMeasurement(got), mrec) {
			f.Fatalf("%s: genuine measurement record does not round-trip", a.Name)
		}
		if got := decodeReports(srec, pairs); got == nil || !bytes.Equal(encodeReports(got), srec) {
			f.Fatalf("%s: genuine sweep record does not round-trip", a.Name)
		}
		for _, rec := range [][]byte{mrec, srec} {
			f.Add(rec)
			f.Add(rec[:len(rec)-1])
			f.Add(rec[:len(rec)/2])
			f.Add(rec[:8])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m := system.DecodeMeasurement(data, sys); m != nil {
			rec := system.EncodeMeasurement(m)
			again := system.DecodeMeasurement(rec, sys)
			if again == nil {
				t.Fatal("re-encoded measurement record does not decode")
			}
			if !bytes.Equal(system.EncodeMeasurement(again), rec) {
				t.Fatal("re-encoded measurement record decodes to a different record")
			}
		}
		if reps := decodeReports(data, pairs); reps != nil {
			rec := encodeReports(reps)
			again := decodeReports(rec, pairs)
			if again == nil {
				t.Fatal("re-encoded sweep record does not decode")
			}
			if !bytes.Equal(encodeReports(again), rec) {
				t.Fatal("re-encoded sweep record decodes to a different record")
			}
		}
	})
}
