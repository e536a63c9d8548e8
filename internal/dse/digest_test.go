package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
)

// frontierDigest is the SHA-256 over the JSON of every app's Explore
// result, search counters included, in apps.All() order, at the default
// geometries, MaxHW 3 and two workers.
const frontierDigest = "2e9d21204342a223e380d1734a476812d1c6ab9051723d6a0790b13a9bf8c4e5"

// TestFrontierDigest pins the Pareto search's full output byte for
// byte: every point, its key and the Configs/Pruned/PairEvals counters.
// Any change to the DFS order, the pruning rule or the dominance
// reduction moves the digest.
func TestFrontierDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("explores all six apps")
	}
	h := sha256.New()
	for _, a := range apps.All() {
		f, err := Explore(context.Background(), buildApp(t, a.Name), Config{MaxHW: 3, Workers: 2})
		if err != nil {
			t.Fatalf("Explore(%s): %v", a.Name, err)
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontierDigest {
		t.Fatalf("frontier digest %s, want %s", got, frontierDigest)
	}
}
