package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
)

// The SHA-256 over the JSON of every app's Explore result, search
// counters included, in apps.All() order, at the default geometries,
// MaxHW 3 and two workers: under the default bound and under the exact
// bound (Config.ExactBound).
const (
	frontierDigest      = "2e9d21204342a223e380d1734a476812d1c6ab9051723d6a0790b13a9bf8c4e5"
	exactFrontierDigest = "18a47d964261d7101908b787cff636e507cdfeb35c9f8d9c685adcde9bb77526"
)

// TestFrontierDigest pins the Pareto search's full output byte for
// byte: every point, its key and the Configs/Pruned/PairEvals counters,
// under both bounds. Any change to the DFS order, the pruning rule, the
// floors or the dominance reduction moves a digest.
func TestFrontierDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("explores all six apps")
	}
	for _, tc := range []struct {
		exact bool
		want  string
	}{{false, frontierDigest}, {true, exactFrontierDigest}} {
		h := sha256.New()
		for _, a := range apps.All() {
			cfg := Config{MaxHW: 3, Workers: 2, ExactBound: tc.exact}
			f, err := Explore(context.Background(), buildApp(t, a.Name), cfg)
			if err != nil {
				t.Fatalf("Explore(%s): %v", a.Name, err)
			}
			b, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Fatalf("frontier digest (exact bound %v) %s, want %s", tc.exact, got, tc.want)
		}
	}
}
