package system

import (
	"context"
	"reflect"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/tech"
)

// TestMeasureAndSweepMatchesReplay is the online profiler's differential:
// on all six applications, the reports MeasureAndSweepCtx profiles during
// the ISS run must equal a replay of the recorded trace field for field,
// its Stream the recorded trace's counts and size, and its Evaluation and
// Baseline a plain MeasureInitialCtx's.
func TestMeasureAndSweepMatchesReplay(t *testing.T) {
	i, d := cache.DefaultICache(), cache.DefaultDCache()
	ih, dh := i, d
	ih.Sets /= 2
	dh.Sets /= 2
	grids := []struct {
		name  string
		pairs [][2]cache.Config
	}{
		// The exploration's default grid, anchor first.
		{"default", [][2]cache.Config{{i, d}, {i, d}, {ih, d}, {i, dh}, {ih, dh}}},
		// Three (i-line, d-line) size groups.
		{"mixed", [][2]cache.Config{
			{i, {Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true}},
			{i, {Sets: 64, Assoc: 2, LineWords: 8, WriteBack: true}},
			{i, {Sets: 128, Assoc: 1, LineWords: 8, WriteBack: true}},
			{{Sets: 64, Assoc: 1, LineWords: 8}, {Sets: 32, Assoc: 4, LineWords: 4, WriteBack: true}},
			{{Sets: 256, Assoc: 2, LineWords: 8}, {Sets: 16, Assoc: 2, LineWords: 4, WriteBack: true}},
		}},
	}
	ctx := context.Background()
	lib := tech.Default()
	for _, a := range apps.All() {
		ir := buildApp(t, a.Name)
		refEv, refBase, err := MeasureInitialCtx(ctx, ir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, tr, err := MeasureAndRecordCtx(ctx, ir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grids {
			name, pairs := g.name, g.pairs
			ev, base, got, st, err := MeasureAndSweepCtx(ctx, ir, Config{}, pairs)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, name, err)
			}
			want, err := tr.SweepReplay(pairs, lib, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d reports, want %d", a.Name, name, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s/%s pair %d:\n  online %+v\n  replay %+v", a.Name, name, j, got[j], want[j])
				}
			}
			if st != tr.Stream() {
				t.Errorf("%s/%s: online stream %+v, recorded %+v", a.Name, name, st, tr.Stream())
			}
			if !reflect.DeepEqual(ev, refEv) {
				t.Errorf("%s/%s: Evaluation differs from MeasureInitialCtx's", a.Name, name)
			}
			if !reflect.DeepEqual(base, refBase) {
				t.Errorf("%s/%s: Baseline differs from MeasureInitialCtx's", a.Name, name)
			}
		}
	}
}
