package dse

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// FuzzDecodeMeasurement fuzzes the persisted measurement phase, the
// bytes a memostore hands back from disk. Neither decoder may panic,
// and any record that decodes must re-encode to a record that decodes
// again and re-encodes to the same bytes. The encoding stores every
// field, floats as raw bit patterns, so equal encodings are equal
// records. The seeds are the six applications' genuine records, which
// must round-trip byte-exactly, and truncations of them.
func FuzzDecodeMeasurement(f *testing.F) {
	lib := tech.Default()
	// The measured grid of a default Prepare: the anchor pair, then the
	// default geometries.
	pairs := append([][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}, DefaultGeometries()...)
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			f.Fatal(err)
		}
		m, err := measure(context.Background(), ir, system.Config{}, pairs)
		if err != nil {
			f.Fatal(err)
		}
		mrec, srec := encodeMeasurement(m), encodeReports(m.reps)
		if got := decodeMeasurement(mrec, lib); got == nil || !bytes.Equal(encodeMeasurement(got), mrec) {
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
		if m := decodeMeasurement(data, lib); m != nil {
			rec := encodeMeasurement(m)
			again := decodeMeasurement(rec, lib)
			if again == nil {
				t.Fatal("re-encoded measurement record does not decode")
			}
			if !bytes.Equal(encodeMeasurement(again), rec) {
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

// TestFingerprintMatchesDumpString: streaming the IR dump into the hash
// keys the measurement exactly as hashing the Dump string did, so
// memostores written before keep hitting. The configuration suffix is
// spelled out as fingerprint writes it.
func TestFingerprintMatchesDumpString(t *testing.T) {
	lib := tech.Default()
	anchorI, anchorD := cache.DefaultICache(), cache.DefaultDCache()
	var cfg Config
	cfg.Sys.MemWords, cfg.Sys.StackWords, cfg.Sys.MaxInstrs = 1<<16, 512, 1e7
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		suffix := fmt.Sprintf("\x00i%+v\x00d%+v\x00m%d\x00s%d\x00x%d\x00",
			anchorI, anchorD, cfg.Sys.MemWords, cfg.Sys.StackWords, cfg.Sys.MaxInstrs) +
			fmt.Sprintf("lib%+v", *lib)
		want := sha256.Sum256([]byte(ir.Dump() + suffix))
		if got := fingerprint(ir, &cfg, anchorI, anchorD, lib); got != want {
			t.Errorf("%s: fingerprint %x, want sha256(Dump()+suffix) %x", a.Name, got, want)
		}
	}
}
