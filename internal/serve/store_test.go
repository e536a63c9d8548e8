package serve

import (
	"bytes"
	"testing"

	"lppart/internal/memostore"
)

// TestStoreRestartReplay is the persistence contract for the service: a
// daemon started over the same store directory a previous daemon
// populated answers a previously-computed POST /v1/partition as a cache
// hit with a byte-identical body, without recomputing the evaluation.
func TestStoreRestartReplay(t *testing.T) {
	dir := t.TempDir()
	req := `{"app":"3d","max_cores":2}`

	st1, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	code1, b1, c1 := post(t, ts1.URL+"/v1/partition", req)
	if code1 != 200 {
		t.Fatalf("first daemon: status %d: %s", code1, b1)
	}
	if c1 != "miss" {
		t.Fatalf("first daemon: X-Cache %q, want miss", c1)
	}
	if s1.cacheMiss.Value() != 1 {
		t.Fatalf("first daemon misses = %d, want 1 (computed once)", s1.cacheMiss.Value())
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process image — new Server, empty LRU — over
	// the same directory.
	st2, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	code2, b2, c2 := post(t, ts2.URL+"/v1/partition", req)
	if code2 != 200 {
		t.Fatalf("restarted daemon: status %d: %s", code2, b2)
	}
	if c2 != "hit" {
		t.Errorf("restarted daemon served X-Cache %q, want hit (store replay)", c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("restarted daemon's body differs from the original:\n%s\nvs\n%s", b1, b2)
	}
	if s2.cacheMiss.Value() != 0 {
		t.Errorf("restarted daemon recomputed (%d misses), want pure store replay", s2.cacheMiss.Value())
	}

	// The store hit warmed the LRU: a third request hits in memory.
	_, b3, c3 := post(t, ts2.URL+"/v1/partition", req)
	if c3 != "hit" || !bytes.Equal(b2, b3) {
		t.Errorf("post-replay request: X-Cache %q, bodies equal %v", c3, bytes.Equal(b2, b3))
	}
}

// TestStoreReadOnlyFleetNode: a node sharing the directory read-only
// replays stored results and still computes (without persisting) fresh
// ones — Put failures must never surface to the client.
func TestStoreReadOnlyFleetNode(t *testing.T) {
	dir := t.TempDir()
	seen := `{"app":"3d","max_cores":2}`
	unseen := `{"app":"engine"}`

	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Store: st})
	code, b1, _ := post(t, ts.URL+"/v1/partition", seen)
	if code != 200 {
		t.Fatalf("writer: status %d", code)
	}
	ts.Close()
	st.Close()

	ro, err := memostore.Open(dir, memostore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	// The writer persisted the body and its program's measurement.
	if ro.Len() != 2 {
		t.Fatalf("read-only store opened with %d entries, want 2", ro.Len())
	}
	_, ts2 := newTestServer(t, Config{Workers: 2, Store: ro})
	code2, b2, c2 := post(t, ts2.URL+"/v1/partition", seen)
	if code2 != 200 || c2 != "hit" || !bytes.Equal(b1, b2) {
		t.Errorf("read-only replay: status %d X-Cache %q equal=%v", code2, c2, bytes.Equal(b1, b2))
	}
	code3, b3, c3 := post(t, ts2.URL+"/v1/partition", unseen)
	if code3 != 200 || c3 != "miss" {
		t.Errorf("read-only compute: status %d X-Cache %q: %s", code3, c3, b3)
	}
	if ro.Len() != 2 {
		t.Errorf("read-only store grew to %d entries", ro.Len())
	}
}
