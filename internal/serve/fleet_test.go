package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// swapHandler lets a test start listeners before the servers that need
// the full peer URL list exist.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newTestCluster boots n lppartd nodes that know each other's URLs.
func newTestCluster(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	swaps := make([]*swapHandler, n)
	peers := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = New(Config{
			Workers: 2, Peers: peers, Self: peers[i],
		})
		swaps[i].set(servers[i].Handler())
	}
	return servers, peers
}

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

// TestPartitionRouting: in a 2-node cluster, both nodes agree on the
// key's owner, the owner computes once, and every later request — to
// either node — is a cache hit served from the owner's tiers.
func TestPartitionRouting(t *testing.T) {
	_, peers := newTestCluster(t, 2)
	req := `{"app":"engine"}`

	st1, b1, _ := post(t, peers[0]+"/v1/partition", req)
	st2, b2, c2 := post(t, peers[1]+"/v1/partition", req)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("status %d/%d: %s", st1, st2, b1)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("routed responses differ between nodes")
	}
	if c2 != "hit" {
		t.Errorf("second request (other node) X-Cache %q, want hit (shared owner cache)", c2)
	}
}

// TestFleetJobsLedger: any node lists the whole fleet's jobs, each
// peer's rows annotated with the owning node and this node's own rows
// listed once, unannotated.
func TestFleetJobsLedger(t *testing.T) {
	servers, peers := newTestCluster(t, 2)
	st, b, _ := post(t, peers[0]+"/v1/explore", exploreReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/explore: status %d: %s", st, b)
	}
	jb := decodeJob(t, b)
	if jb = pollJob(t, peers[0], jb.JobID); jb.State != "done" {
		t.Fatalf("explore job failed: %s", jb.Error)
	}

	ledger := func(base string) []JobSummary {
		t.Helper()
		st, b := get(t, base+"/v1/jobs")
		if st != 200 {
			t.Fatalf("GET %s/v1/jobs: status %d: %s", base, st, b)
		}
		var jr JobsResponse
		if err := json.Unmarshal(b, &jr); err != nil {
			t.Fatalf("bad jobs body %s: %v", b, err)
		}
		return jr.Jobs
	}
	own := ledger(peers[0])
	if len(own) != 1 || own[0].Node != "" || own[0].JobID != jb.JobID || own[0].State != "done" {
		t.Errorf("owner's ledger: %+v, want its one job, unannotated", own)
	}
	other := ledger(peers[1])
	if len(other) != 1 || other[0].Node != peers[0] || other[0].JobID != jb.JobID {
		t.Errorf("peer's ledger: %+v, want the owner's job annotated with %s", other, peers[0])
	}

	var mb strings.Builder
	servers[1].Metrics().WritePrometheus(&mb)
	for _, want := range []string{`lppartd_peers{state="up"} 2`, `lppartd_peers{state="down"} 0`} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRetiredClusterRoutes: the sharded-search endpoints are gone.
func TestRetiredClusterRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/cluster", "/v1/shard"} {
		st, b, _ := post(t, ts.URL+path, `{"app":"engine"}`)
		if st != http.StatusNotFound && st != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d: %s", path, st, b)
		}
	}
}

func TestRingDeterministicAndOrderFree(t *testing.T) {
	a := newRing([]string{"http://n1", "http://n2", "http://n3"})
	b := newRing([]string{"http://n3", "http://n1", "http://n2", "http://n1", ""})
	if len(a.peers) != 3 || len(b.peers) != 3 {
		t.Fatalf("peers: got %d and %d, want 3 (duplicates and empties dropped)", len(a.peers), len(b.peers))
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("owner of %q depends on peer list order: %q vs %q", key, a.owner(key), b.owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := newRing([]string{"http://n1", "http://n2", "http://n3"})
	count := map[string]int{}
	for i := 0; i < 900; i++ {
		count[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, p := range r.peers {
		if count[p] < 90 { // 10% of fair share 300 — a gross-imbalance tripwire
			t.Errorf("peer %s owns only %d of 900 keys", p, count[p])
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := newRing(nil)
	if got := r.owner("anything"); got != "" {
		t.Fatalf("empty ring owner: got %q, want empty", got)
	}
}
