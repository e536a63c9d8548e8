package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON request and returns status, body and the X-Cache
// header.
func post(t testing.TB, url string, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header.Get("X-Cache")
}

// TestPartitionDeterministicBody is the tentpole contract: the same
// request twice returns byte-identical bodies, the second served from
// the cache — and a fresh server (no cache) computes those same bytes.
func TestPartitionDeterministicBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"app":"3d","max_cores":2}`
	st1, b1, c1 := post(t, ts.URL+"/v1/partition", req)
	st2, b2, c2 := post(t, ts.URL+"/v1/partition", req)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("status %d/%d, want 200/200; body: %s", st1, st2, b1)
	}
	if c1 != "miss" || c2 != "hit" {
		t.Errorf("X-Cache = %q then %q, want miss then hit", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached body differs from computed body:\n%s\nvs\n%s", b1, b2)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1})
	st3, b3, _ := post(t, ts2.URL+"/v1/partition", req)
	if st3 != 200 {
		t.Fatalf("fresh server status %d", st3)
	}
	if !bytes.Equal(b1, b3) {
		t.Errorf("fresh server computed different bytes than the original run")
	}

	var pr PartitionResponse
	if err := json.Unmarshal(b1, &pr); err != nil {
		t.Fatalf("response not valid JSON: %v", err)
	}
	if pr.App != "3d" || pr.Initial == nil || pr.Trail == "" || pr.Table1 == "" {
		t.Errorf("response missing decision trail or Table 1 row: %+v", pr)
	}
	if pr.Savings >= 0 {
		t.Errorf("3d savings %.2f%%, want negative (a saving)", pr.Savings)
	}
}

// Defaults spelled out and defaults left implicit are the same Fig. 1
// tuple, so they share one cache entry.
func TestCanonicalizationSharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st1, b1, _ := post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
	st2, b2, c2 := post(t, ts.URL+"/v1/partition",
		`{"app":"engine","f":1.0,"max_clusters":5,"geq_budget":16000,"max_cores":1}`)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("status %d/%d; body %s", st1, st2, b1)
	}
	if c2 != "hit" {
		t.Errorf("explicit-defaults request was a %q, want cache hit", c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("bodies differ between implicit- and explicit-default requests")
	}
}

func TestPartitionVerifyAndOverrides(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/partition",
		`{"app":"engine","verify":true,"resource_sets":[{"name":"rs-std"},{"name":"custom","max":{"ALU":2,"MUL":1,"CMP":1}}]}`)
	if st != 200 {
		t.Fatalf("status %d: %s", st, b)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Verified {
		t.Error("verify:true response not marked verified")
	}
	if !strings.Contains(pr.Trail, "rs-std") || !strings.Contains(pr.Trail, "custom") {
		t.Errorf("trail does not show the requested resource sets:\n%s", pr.Trail)
	}

	// Different resource sets must hash to a different cache key.
	_, _, c := post(t, ts.URL+"/v1/partition", `{"app":"engine","verify":true,"resource_sets":[{"name":"rs-std"}]}`)
	if c != "miss" {
		t.Error("narrower resource-set request unexpectedly hit the wider request's cache entry")
	}
}

// TestShedUnderLoad pins the admission contract: with every worker busy
// and the queue full, the next request is shed immediately with 429 and
// a Retry-After header. The worker pool is occupied white-box (by taking
// its only token) so the test never depends on evaluation timing.
func TestShedUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	<-s.adm.slots // occupy the only worker

	queued := make(chan []byte, 1)
	go func() {
		_, b, _ := post(t, ts.URL+"/v1/partition", `{"app":"3d"}`)
		queued <- b
	}()
	waitFor(t, "request to queue", func() bool { return s.adm.queueLen() == 1 })

	st, body, _ := post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
	if st != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429; body %s", st, body)
	}
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(`{"app":"MPG"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed response: status %d Retry-After %q, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	s.adm.slots <- struct{}{} // free the worker; the queued request completes
	select {
	case b := <-queued:
		var pr PartitionResponse
		if err := json.Unmarshal(b, &pr); err != nil || pr.App != "3d" {
			t.Errorf("queued request did not complete cleanly: %v %s", err, b)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestGracefulDrain pins the shutdown contract: after Drain(), requests
// already admitted (queued or running) complete, new work is shed with
// 503, and /readyz flips to 503 so load balancers stop routing here.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	<-s.adm.slots // hold the worker so the in-flight request stays in flight

	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		st, b, _ := post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
		inflight <- struct {
			status int
			body   []byte
		}{st, b}
	}()
	waitFor(t, "request to queue", func() bool { return s.adm.queueLen() == 1 })

	s.Drain() // what cmd/lppartd does on SIGTERM, before http.Server.Shutdown

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz while draining: %d, want 503", resp.StatusCode)
		}
	}
	st, body, _ := post(t, ts.URL+"/v1/partition", `{"app":"ckey"}`)
	if st != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: status %d, want 503; body %s", st, body)
	}

	s.adm.slots <- struct{}{} // worker frees up; the admitted request finishes
	select {
	case r := <-inflight:
		if r.status != 200 {
			t.Errorf("in-flight request after SIGTERM: status %d, want 200; body %s", r.status, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed after drain")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServedSourceAndParseErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSourceBytes: 4096})

	src := "var out; func main() { var i; out = 0; for i = 0; i < 64; i = i + 1 { out = out + i*i; } }"
	body, _ := json.Marshal(PartitionRequest{Source: src})
	st, b, _ := post(t, ts.URL+"/v1/partition", string(body))
	if st != 200 {
		t.Fatalf("served source: status %d: %s", st, b)
	}

	// Parse error: line/column in the JSON error body.
	bad, _ := json.Marshal(PartitionRequest{Source: "func main() {\n  x = ;\n}"})
	st, b, _ = post(t, ts.URL+"/v1/partition", string(bad))
	if st != 400 {
		t.Fatalf("parse error: status %d, want 400: %s", st, b)
	}
	var ae apiError
	if err := json.Unmarshal(b, &ae); err != nil {
		t.Fatal(err)
	}
	if ae.Line != 2 || ae.Col == 0 || ae.Err == "" {
		t.Errorf("parse error body %s, want line 2 and a column", b)
	}

	// Size cap: 413.
	huge, _ := json.Marshal(PartitionRequest{Source: "# " + strings.Repeat("x", 5000) + "\nfunc main() { }"})
	st, b, _ = post(t, ts.URL+"/v1/partition", string(huge))
	if st != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized source: status %d, want 413: %s", st, b)
	}

	for _, tc := range []struct{ name, req string }{
		{"no app or source", `{}`},
		{"both app and source", `{"app":"3d","source":"func main() { }"}`},
		{"unknown app", `{"app":"nope"}`},
		{"unknown field", `{"app":"3d","bogus":1}`},
		{"unknown resource kind", `{"app":"3d","resource_sets":[{"name":"x","max":{"FPU":1}}]}`},
		{"unknown builtin set", `{"app":"3d","resource_sets":[{"name":"rs-huge"}]}`},
		{"negative f", `{"app":"3d","f":-1}`},
	} {
		st, b, _ := post(t, ts.URL+"/v1/partition", tc.req)
		if st != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, st, b)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := `{"app":"engine","sets":[64,128],"assoc":[1,2],"line_words":4}`
	st, b1, c1 := post(t, ts.URL+"/v1/sweep", req)
	if st != 200 {
		t.Fatalf("sweep: status %d: %s", st, b1)
	}
	_, b2, c2 := post(t, ts.URL+"/v1/sweep", req)
	if c1 != "miss" || c2 != "hit" {
		t.Errorf("sweep X-Cache = %q then %q, want miss then hit", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("sweep bodies differ between computed and cached paths")
	}
	var sr SweepResponse
	if err := json.Unmarshal(b1, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Geometries) != 4 {
		t.Fatalf("%d geometries, want 4", len(sr.Geometries))
	}
	if sr.ProfilerPasses != 1 {
		t.Errorf("profiler passes = %d, want 1 (single line size)", sr.ProfilerPasses)
	}
	if sr.Fetches == 0 || sr.Geometries[0].Summary == "" {
		t.Errorf("sweep response missing trace counts or summaries: %+v", sr)
	}

	// A one-point grid with the default line size answers one geometry.
	st, b, _ := post(t, ts.URL+"/v1/sweep", `{"app":"engine","sets":[64],"assoc":[1]}`)
	var one SweepResponse
	if st != 200 || json.Unmarshal(b, &one) != nil || len(one.Geometries) != 1 {
		t.Errorf("one-geometry sweep: status %d, want 200 with 1 geometry (%s)", st, b)
	}

	st, b, _ = post(t, ts.URL+"/v1/sweep", `{"app":"engine","sets":[48]}`)
	if st != 400 {
		t.Errorf("non-power-of-two sets: status %d, want 400 (%s)", st, b)
	}

	// sets×assoc = 16×(maxGeometries/16+1) grid points, over the limit.
	over := `{"app":"engine","sets":[16` + strings.Repeat(`,16`, 15) + `],"assoc":[1` +
		strings.Repeat(`,1`, maxGeometries/16) + `]}`
	st, b, _ = post(t, ts.URL+"/v1/sweep", over)
	if st != 400 || !strings.Contains(string(b), "exceed the limit") {
		t.Errorf("over-limit geometry grid: status %d, want 400 (%s)", st, b)
	}
}

func TestAppsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar AppsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Apps) != 6 {
		t.Fatalf("%d apps, want the paper's 6", len(ar.Apps))
	}
	if ar.Apps[0].Name != "3d" || ar.Apps[0].PaperSavings >= 0 {
		t.Errorf("apps[0] = %+v, want 3d with negative paper savings", ar.Apps[0])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	post(t, ts.URL+"/v1/partition", `{"app":"3d"}`)
	post(t, ts.URL+"/v1/partition", `{"app":"3d"}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		`lppartd_requests_total{endpoint="partition",outcome="ok"} 1`,
		`lppartd_requests_total{endpoint="partition",outcome="cache_hit"} 1`,
		`lppartd_cache_ops_total{op="hit"} 1`,
		`lppartd_cache_ops_total{op="miss"} 1`,
		`lppartd_measure_ops_total{op="hit"} 0`,
		`lppartd_measure_ops_total{op="miss"} 1`,
		`lppartd_cache_entries 2`,
		`lppartd_workers 3`,
		`lppartd_queue_depth 0`,
		"lppartd_request_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz: %d", resp.StatusCode)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != 200 {
		t.Errorf("/readyz before drain: %d", ready.StatusCode)
	}
}

// LRU eviction keeps the cache bounded and the evicted key recomputes to
// the same bytes.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 2})
	_, b1, _ := post(t, ts.URL+"/v1/partition", `{"app":"3d"}`)
	post(t, ts.URL+"/v1/partition", `{"app":"engine"}`)
	post(t, ts.URL+"/v1/partition", `{"app":"ckey"}`) // evicts 3d
	if n := s.cache.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
	st, b2, c := post(t, ts.URL+"/v1/partition", `{"app":"3d"}`)
	if st != 200 || c != "miss" {
		t.Fatalf("re-request of evicted key: status %d X-Cache %q", st, c)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("recomputed body differs from the originally computed one")
	}
}
