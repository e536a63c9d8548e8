package milp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/dse"
)

// certDigest is the SHA-256 over the JSON of every app's Solve result,
// certificates included, in apps.All() order, with the pre-selection
// widened to 12 clusters, MaxHW 3 and two workers.
const certDigest = "f383e4ee65d3d7b522e1c7dcdfc9013659d0e74d19c2a989b120784b3a83d482"

// TestCertificateDigest pins the solver's full output byte for byte:
// optima, counters and every expanded and pruned trail node in order.
// Any change to the search order, the tie-break or the recorded trail
// moves the digest.
func TestCertificateDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares all six apps")
	}
	h := sha256.New()
	for _, a := range apps.All() {
		var cfg dse.Config
		cfg.Sys.Part.MaxClusters = 12
		p := prepApp(t, a.Name, cfg)
		res, err := Solve(context.Background(), p, Config{MaxHW: 3, Workers: 2, Certificate: true})
		if err != nil {
			t.Fatalf("Solve(%s): %v", a.Name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != certDigest {
		t.Fatalf("certificate digest %s, want %s", got, certDigest)
	}
}
