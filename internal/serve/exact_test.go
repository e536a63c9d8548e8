package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// exactReq mirrors exploreReq: a small two-geometry solve, fast enough
// to run to completion inside the tests.
const exactReq = `{"app":"engine","max_hw":2,"geometries":[{},{"dsets":32}]}`

// TestExactJobLifecycle walks the async contract end to end: POST
// returns 202 with a pollable job, the job finishes with certified
// optima, an identical POST deduplicates onto the finished job, and
// DELETE removes it.
func TestExactJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/exact", exactReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/exact: status %d: %s", st, b)
	}
	jb := decodeJob(t, b)
	if jb.JobID == "" || jb.State != "queued" || jb.Existing {
		t.Fatalf("accepted job: %+v", jb)
	}
	if jb.Poll != "/v1/exact/"+jb.JobID {
		t.Errorf("poll URL %q", jb.Poll)
	}

	done := pollJobAt(t, ts.URL+"/v1/exact/", jb.JobID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.Total != 2 || done.Done != done.Total {
		t.Errorf("progress %d/%d, want 2/2", done.Done, done.Total)
	}
	if len(done.Frontier) != 0 {
		t.Errorf("exact job carries a frontier body: %s", done.Frontier)
	}
	var eb ExactBody
	if err := json.Unmarshal(done.Exact, &eb); err != nil {
		t.Fatalf("exact body: %v", err)
	}
	if eb.App != "engine" || len(eb.Optima) != 2 || !eb.Certified {
		t.Fatalf("exact: app=%q optima=%d certified=%v", eb.App, len(eb.Optima), eb.Certified)
	}
	for i, o := range eb.Optima {
		if !o.Stats.Proven {
			t.Errorf("optimum %d not proven: %+v", i, o.Stats)
		}
		if o.OF > o.GreedyOF {
			t.Errorf("optimum %d: exact OF %v exceeds greedy %v", i, o.OF, o.GreedyOF)
		}
		if o.GapPct < 0 {
			t.Errorf("optimum %d: negative gap %v", i, o.GapPct)
		}
		if o.Cert != nil {
			t.Errorf("optimum %d: bound trail leaked onto the wire", i)
		}
	}
	// engine's greedy choice is provably suboptimal on the reference
	// geometry, so the anchor gap must be strictly positive.
	if eb.Optima[0].GapPct <= 0 {
		t.Errorf("engine anchor gap %v, want > 0", eb.Optima[0].GapPct)
	}

	// An identical POST deduplicates onto the finished job and returns
	// its result immediately.
	st2, b2, _ := post(t, ts.URL+"/v1/exact", exactReq)
	if st2 != http.StatusOK {
		t.Fatalf("dedupe POST: status %d: %s", st2, b2)
	}
	dup := decodeJob(t, b2)
	if !dup.Existing || dup.JobID != jb.JobID || dup.State != "done" {
		t.Fatalf("dedupe job: %+v", dup)
	}
	if !bytes.Equal(dup.Exact, done.Exact) {
		t.Error("deduplicated POST returned different exact bytes")
	}

	// DELETE removes the job; a later GET 404s.
	st3, b3 := del(t, ts.URL+"/v1/exact/"+jb.JobID)
	if st3 != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", st3, b3)
	}
	if st4, _ := get(t, ts.URL+"/v1/exact/"+jb.JobID); st4 != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", st4)
	}
}

// TestExactPast64Clusters: an exact job on a source program whose pool
// holds 80 clusters, past what a 64-bit conflict mask indexes, reaches
// done with a proven optimum per geometry and every certificate
// re-checked.
func TestExactPast64Clusters(t *testing.T) {
	src, err := os.ReadFile("../milp/testdata/kernels40.behav")
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(ExploreRequest{Source: string(src), MaxClusters: 80})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/exact", string(req))
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/exact: status %d: %s", st, b)
	}
	done := pollJobAt(t, ts.URL+"/v1/exact/", decodeJob(t, b).JobID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	var eb ExactBody
	if err := json.Unmarshal(done.Exact, &eb); err != nil {
		t.Fatalf("exact body: %v", err)
	}
	if !eb.Certified || len(eb.Optima) != 4 {
		t.Fatalf("exact: optima=%d certified=%v", len(eb.Optima), eb.Certified)
	}
	for i, o := range eb.Optima {
		if !o.Stats.Proven || o.OF > o.GreedyOF {
			t.Errorf("optimum %d: OF %v (greedy %v), stats %+v", i, o.OF, o.GreedyOF, o.Stats)
		}
	}
}

// TestExactExploreDistinctJobs pins the key-space separation: the same
// body POSTed to /v1/explore and /v1/exact must create two distinct
// jobs, never deduplicate across endpoints.
func TestExactExploreDistinctJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st1, b1, _ := post(t, ts.URL+"/v1/explore", exactReq)
	st2, b2, _ := post(t, ts.URL+"/v1/exact", exactReq)
	if st1 != http.StatusAccepted || st2 != http.StatusAccepted {
		t.Fatalf("POST statuses %d/%d: %s / %s", st1, st2, b1, b2)
	}
	j1, j2 := decodeJob(t, b1), decodeJob(t, b2)
	if j1.JobID == j2.JobID {
		t.Errorf("explore and exact deduplicated onto one job %s", j1.JobID)
	}
	if j2.Existing {
		t.Errorf("exact job marked existing: %+v", j2)
	}
}

// TestExactDeterministicAcrossServers is the service-level determinism
// contract: two independent servers produce byte-identical exact
// bodies for the same request.
func TestExactDeterministicAcrossServers(t *testing.T) {
	var bodies [2]json.RawMessage
	for i := range bodies {
		_, ts := newTestServer(t, Config{Workers: 2})
		st, b, _ := post(t, ts.URL+"/v1/exact", exactReq)
		if st != http.StatusAccepted {
			t.Fatalf("server %d: status %d: %s", i, st, b)
		}
		jb := pollJobAt(t, ts.URL+"/v1/exact/", decodeJob(t, b).JobID)
		if jb.State != "done" {
			t.Fatalf("server %d: job %s: %s", i, jb.State, jb.Error)
		}
		bodies[i] = jb.Exact
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("exact bodies differ across servers:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestExactValidation exercises the synchronous 400 paths and the
// unknown-job 404s.
func TestExactValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"no app", `{}`},
		{"unknown app", `{"app":"nope"}`},
		{"bad geometry", `{"app":"engine","geometries":[{"dsets":3}]}`},
		{"negative knob", `{"app":"engine","max_hw":-1}`},
		{"unknown field", `{"app":"engine","bogus":1}`},
		{"too many geometries", `{"app":"engine","geometries":[` + strings.Repeat(`{},`, maxGeometries) + `{}]}`},
	} {
		if st, b, _ := post(t, ts.URL+"/v1/exact", tc.body); st != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, st, b)
		}
	}
	if st, _ := get(t, ts.URL+"/v1/exact/j999999"); st != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d", st)
	}
	if st, _ := del(t, ts.URL+"/v1/exact/j999999"); st != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d", st)
	}
}

// TestExactMetricsExposition pins the exact endpoint's slice of the
// /metrics exposition: per-outcome request counters, the
// lppartd_jobs{state} gauges tracking the job table, and the
// measurement tier (a cold job misses the measurement record and caches
// both records, while the request-level cache counters stay at zero).
func TestExactMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if st, b, _ := post(t, ts.URL+"/v1/exact", `{}`); st != http.StatusBadRequest {
		t.Fatalf("bad POST: status %d: %s", st, b)
	}
	st, b, _ := post(t, ts.URL+"/v1/exact", exactReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", st, b)
	}
	if jb := pollJobAt(t, ts.URL+"/v1/exact/", decodeJob(t, b).JobID); jb.State != "done" {
		t.Fatalf("job ended %s: %s", jb.State, jb.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	out := string(mb)
	for _, want := range []string{
		`lppartd_requests_total{endpoint="exact",outcome="bad_request"} 1`,
		`lppartd_requests_total{endpoint="exact",outcome="shed_queue"} 0`,
		`lppartd_jobs{state="queued"} 0`,
		`lppartd_jobs{state="running"} 0`,
		`lppartd_jobs{state="done"} 1`,
		`lppartd_jobs{state="failed"} 0`,
		`lppartd_measure_ops_total{op="hit"} 0`,
		`lppartd_measure_ops_total{op="miss"} 1`,
		`lppartd_cache_ops_total{op="hit"} 0`,
		`lppartd_cache_ops_total{op="miss"} 0`,
		`lppartd_cache_entries 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The ok counter covers the POST plus however many polls ran; pin
	// presence and a positive count rather than an exact value.
	i := strings.Index(out, `lppartd_requests_total{endpoint="exact",outcome="ok"} `)
	if i < 0 {
		t.Fatal(`/metrics missing lppartd_requests_total{endpoint="exact",outcome="ok"}`)
	}
	rest := out[i+len(`lppartd_requests_total{endpoint="exact",outcome="ok"} `):]
	if strings.HasPrefix(rest, "0\n") {
		t.Error("exact ok counter stuck at zero")
	}
}

// TestJobWrongEndpoint pins that a job is reachable only through its
// own kind's routes: GET and DELETE on the other job endpoint answer
// 404 and leave the job untouched.
func TestJobWrongEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/exact", exactReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/exact: status %d: %s", st, b)
	}
	id := decodeJob(t, b).JobID
	if st, b := get(t, ts.URL+"/v1/explore/"+id); st != http.StatusNotFound {
		t.Errorf("GET /v1/explore/%s: status %d, want 404: %s", id, st, b)
	}
	if st, b := del(t, ts.URL+"/v1/explore/"+id); st != http.StatusNotFound {
		t.Errorf("DELETE /v1/explore/%s: status %d, want 404: %s", id, st, b)
	}
	done := pollJobAt(t, ts.URL+"/v1/exact/", id)
	if done.State != "done" || len(done.Exact) == 0 {
		t.Fatalf("exact job after wrong-endpoint calls: state %s error %q", done.State, done.Error)
	}
}
