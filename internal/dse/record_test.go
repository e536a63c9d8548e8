package dse

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/system"
)

// measurementRecordDigest is the SHA-256 of the six applications'
// measurement and sweep records on a default Prepare's grid. A
// memostore written by any earlier build holds these bytes, so they must
// not move while the records keep their version.
const measurementRecordDigest = "29615101560f6aa6a5f77aee477ee555f4304614e150a134ffe140ad075d76e2"

// TestMeasurementRecordDigest pins the persisted measurement records
// byte for byte, profile included: a -store directory written before a
// change to how the measurement is taken must still replay.
func TestMeasurementRecordDigest(t *testing.T) {
	pairs := append([][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}, DefaultGeometries()...)
	h := sha256.New()
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := measure(context.Background(), ir, system.Config{}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(encodeMeasurement(m))
		h.Write(encodeReports(m.reps))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != measurementRecordDigest {
		t.Errorf("measurement record digest %s, want %s", got, measurementRecordDigest)
	}
}
