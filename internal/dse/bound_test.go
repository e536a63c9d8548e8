package dse

import (
	"bytes"
	"context"
	"testing"

	"lppart/internal/apps"
)

// TestExactBound pins the exact bound's contract on every app: the
// default, exact and exhaustive (DisableBound) searches return
// byte-identical points, and the exact floors prune at least as hard as
// the default suffix sums — on MPG strictly below the default bound's
// 80 configs.
func TestExactBound(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			p, err := Prepare(ctx, buildApp(t, a.Name), Config{})
			if err != nil {
				t.Fatal(err)
			}
			explore := func(cfg Config) *Frontier {
				cfg.Workers = 1
				f, err := ExplorePrep(ctx, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			def := explore(Config{})
			exact := explore(Config{ExactBound: true})
			exhaustive := explore(Config{DisableBound: true})
			if !bytes.Equal(pointsJSON(t, def), pointsJSON(t, exact)) {
				t.Fatal("exact-bound frontier differs from the default run")
			}
			if !bytes.Equal(pointsJSON(t, def), pointsJSON(t, exhaustive)) {
				t.Fatal("bounded frontier differs from the exhaustive run")
			}
			if exact.Stats.Configs > def.Stats.Configs {
				t.Fatalf("exact bound evaluated %d configs > default %d", exact.Stats.Configs, def.Stats.Configs)
			}
			if exact.Stats.Pruned < def.Stats.Pruned {
				t.Fatalf("exact bound pruned %d < default %d", exact.Stats.Pruned, def.Stats.Pruned)
			}
			if a.Name == "MPG" && exact.Stats.Configs >= 80 {
				t.Fatalf("exact bound evaluated %d configs on MPG, want < 80 (default: %d, exhaustive: %d)",
					exact.Stats.Configs, def.Stats.Configs, exhaustive.Stats.Configs)
			}
		})
	}
}
