package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestBatchEndpoint: one call, many partitions, per-item statuses, and
// the items land in the same cache as /v1/partition.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"app":"engine"},{"app":"nope"},{"app":"engine"}]}`)
	if st != 200 {
		t.Fatalf("POST /v1/batch: status %d: %s", st, b)
	}
	var resp BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("bad batch body %s: %v", b, err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Status != 200 || resp.Results[2].Status != 200 {
		t.Errorf("good items: status %d, %d", resp.Results[0].Status, resp.Results[2].Status)
	}
	if resp.Results[1].Status != http.StatusBadRequest {
		t.Errorf("bad item: status %d", resp.Results[1].Status)
	}
	if !bytes.Equal(resp.Results[0].Body, resp.Results[2].Body) {
		t.Error("identical batch items returned different bodies")
	}

	// The batch warmed the shared cache: a direct /v1/partition hit.
	st, _, cacheHdr := post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
	if st != 200 || cacheHdr != "hit" {
		t.Errorf("partition after batch: status %d, X-Cache %q, want 200/hit", st, cacheHdr)
	}

	if st, b, _ := post(t, ts.URL+"/v1/batch", `{"requests":[]}`); st != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", st, b)
	}
}

// TestJobsLedger: GET /v1/jobs lists this node's jobs — a fresh
// server's empty ledger byte for byte, then one finished explore job
// listed once, done, with no node annotation.
func TestJobsLedger(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b := get(t, ts.URL+"/v1/jobs")
	if st != 200 || string(b) != "{\"jobs\":[]}\n" {
		t.Fatalf("empty ledger: status %d, body %q", st, b)
	}

	st, b, _ = post(t, ts.URL+"/v1/explore", exploreReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/explore: status %d: %s", st, b)
	}
	jb := decodeJob(t, b)
	if jb = pollJob(t, ts.URL, jb.JobID); jb.State != "done" {
		t.Fatalf("explore job failed: %s", jb.Error)
	}

	st, b = get(t, ts.URL+"/v1/jobs")
	if st != 200 {
		t.Fatalf("GET /v1/jobs: status %d: %s", st, b)
	}
	var jr JobsResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		t.Fatalf("bad jobs body %s: %v", b, err)
	}
	if len(jr.Jobs) != 1 || jr.Jobs[0].JobID != jb.JobID || jr.Jobs[0].State != "done" {
		t.Errorf("ledger: %+v, want job %s once, done", jr.Jobs, jb.JobID)
	}
	var raw struct{ Jobs []map[string]json.RawMessage }
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, row := range raw.Jobs {
		if _, ok := row["node"]; ok {
			t.Errorf("ledger row has a node key: %s", b)
		}
	}
}

// TestRetiredClusterRoutes: the sharded-search endpoints and fleet
// routing are gone — /v1/cluster and /v1/shard are unrouted, the old
// forward header changes nothing, and /metrics has no peer gauges.
func TestRetiredClusterRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/cluster", "/v1/shard"} {
		st, b, _ := post(t, ts.URL+path, `{"app":"engine"}`)
		if st != http.StatusNotFound && st != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d: %s", path, st, b)
		}
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", strings.NewReader(`{"app":"engine"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Lppart-Forwarded", "http://elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, b, _ := post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
	if resp.StatusCode != st || !bytes.Equal(fwd, b) {
		t.Errorf("forward header changed the answer: status %d vs %d, bodies equal %v",
			resp.StatusCode, st, bytes.Equal(fwd, b))
	}

	if _, m := get(t, ts.URL+"/metrics"); bytes.Contains(m, []byte("lppartd_peers")) {
		t.Error("/metrics still exposes lppartd_peers")
	}
}
