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
// not move while the records keep their version. (Measurement record
// version 2 added the initial design's breakdown and globals digest.)
const measurementRecordDigest = "56f04e7bd23fea5fe7952f96fbe2d16ca7970c17632ca0d6584765fcba32ce5e"

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
		h.Write(system.EncodeMeasurement(m.Measurement))
		h.Write(encodeReports(m.reps))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != measurementRecordDigest {
		t.Errorf("measurement record digest %s, want %s", got, measurementRecordDigest)
	}
}
