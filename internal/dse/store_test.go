package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lppart/internal/memostore"
)

// TestStoreWarmFrontierByteIdentical is the DSE persistence contract:
// exploring with a store (cold: populates; warm: replays the measurement
// phase) yields frontiers byte-identical to a store-less run, and the
// warm run really skipped the measurement (the store served both
// records).
func TestStoreWarmFrontierByteIdentical(t *testing.T) {
	ir := buildApp(t, "engine")
	dir := t.TempDir()

	ref := pointsJSON(t, run(t, ir, Config{Workers: 1}))

	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := pointsJSON(t, run(t, ir, Config{Workers: 1, Store: st}))
	if !bytes.Equal(ref, cold) {
		t.Errorf("cold store run differs from store-less run:\n%s\nvs\n%s", ref, cold)
	}
	if st.Len() != 2 {
		t.Fatalf("cold run persisted %d records, want 2 (measurement + sweep)", st.Len())
	}
	st.Close()

	// Warm run through a fresh handle ("restarted process"): records are
	// decoded from disk, the interpreter/ISS/sweep never run. Read-only
	// open proves the warm path needs no writes.
	ro, err := memostore.Open(dir, memostore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	warm := pointsJSON(t, run(t, ir, Config{Workers: 1, Store: ro}))
	if !bytes.Equal(ref, warm) {
		t.Errorf("warm store run differs from store-less run:\n%s\nvs\n%s", ref, warm)
	}

	// Changing the geometry grid invalidates the sweep record (different
	// key) but not correctness: the run falls back cold and still matches
	// a store-less run of the same grid.
	narrow := Config{Workers: 1, Geometries: DefaultGeometries()[:2]}
	refNarrow := pointsJSON(t, run(t, ir, narrow))
	narrowStored := narrow
	narrowStored.Store = ro
	if got := pointsJSON(t, run(t, ir, narrowStored)); !bytes.Equal(refNarrow, got) {
		t.Errorf("grid-changed store run differs from store-less run")
	}
}

// TestStoreCorruptRecordFallsBackCold: flipping bytes inside a persisted
// record must not poison the frontier — the CRC (or the decoder) rejects
// it and the run recomputes, byte-identical to a clean run.
func TestStoreCorruptRecordFallsBackCold(t *testing.T) {
	ir := buildApp(t, "engine")
	dir := t.TempDir()
	ref := pointsJSON(t, run(t, ir, Config{Workers: 1}))

	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, ir, Config{Workers: 1, Store: st})
	st.Close()

	// Corrupt the chunk mid-file.
	path := filepath.Join(dir, "chunk-000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatalf("store with corrupt chunk failed to open: %v", err)
	}
	defer st2.Close()
	got := pointsJSON(t, run(t, ir, Config{Workers: 1, Store: st2}))
	if !bytes.Equal(ref, got) {
		t.Errorf("corrupt-store run differs from clean run")
	}
}

// TestStoreBypassedInVerifyMode: an audited exploration must exercise
// the full live flow, so Verify runs neither read nor write the store.
func TestStoreBypassedInVerifyMode(t *testing.T) {
	ir := buildApp(t, "engine")
	st, err := memostore.Open(t.TempDir(), memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := Config{Workers: 1, Store: st}
	cfg.Sys.Part.Verify = true
	run(t, ir, cfg)
	if st.Len() != 0 {
		t.Errorf("verify-mode exploration wrote %d store records, want 0", st.Len())
	}
}

// TestStoreWarmParallelFreshIR: a warm store skips the measurement
// phase, so ExplorePrep's grid pricing is the first to walk a fresh IR's
// regions, and the parallel geometry searches then read those grids. A
// warm parallel run must match the cold one. Run under -race.
func TestStoreWarmParallelFreshIR(t *testing.T) {
	st, err := memostore.Open(t.TempDir(), memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ref := pointsJSON(t, run(t, buildApp(t, "MPG"), Config{Workers: 2, Store: st}))
	warm := pointsJSON(t, run(t, buildApp(t, "MPG"), Config{Workers: 2, Store: st}))
	if !bytes.Equal(ref, warm) {
		t.Errorf("warm parallel run differs from the cold one:\n%s\nvs\n%s", ref, warm)
	}
}
