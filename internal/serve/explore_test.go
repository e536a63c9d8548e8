package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// get fetches a URL and returns status and body.
func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// del issues a DELETE and returns status and body.
func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// decodeJob parses a JobBody response.
func decodeJob(t testing.TB, b []byte) *JobBody {
	t.Helper()
	var jb JobBody
	if err := json.Unmarshal(b, &jb); err != nil {
		t.Fatalf("bad job body %s: %v", b, err)
	}
	return &jb
}

// pollJob polls GET /v1/explore/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) *JobBody {
	return pollJobAt(t, base+"/v1/explore/", id)
}

// pollJobAt polls one job endpoint until the job is terminal.
func pollJobAt(t testing.TB, prefix, id string) *JobBody {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, b := get(t, prefix+id)
		if st != 200 {
			t.Fatalf("poll %s: status %d: %s", id, st, b)
		}
		jb := decodeJob(t, b)
		if jb.State == "done" || jb.State == "failed" {
			return jb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jb.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runJobBody posts one job, polls it to completion and returns its
// result field (the frontier or the exact body).
func runJobBody(t testing.TB, base, kind, req string) json.RawMessage {
	t.Helper()
	st, b, _ := post(t, base+"/v1/"+kind, req)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/%s %s: status %d: %s", kind, req, st, b)
	}
	jb := pollJobAt(t, base+"/v1/"+kind+"/", decodeJob(t, b).JobID)
	if jb.State != "done" {
		t.Fatalf("%s %s: job %s: %s", kind, req, jb.State, jb.Error)
	}
	return jobResultField(kind, jb)
}

// exploreReq is a small two-geometry exploration, fast enough to run to
// completion inside the tests.
const exploreReq = `{"app":"engine","max_hw":1,"geometries":[{},{"dsets":32}]}`

// TestExploreJobLifecycle walks the async contract end to end: POST
// returns 202 with a pollable job, the job finishes with a frontier, an
// identical POST deduplicates onto the finished job, and DELETE removes
// it.
func TestExploreJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, b, _ := post(t, ts.URL+"/v1/explore", exploreReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST /v1/explore: status %d: %s", st, b)
	}
	jb := decodeJob(t, b)
	if jb.JobID == "" || jb.State != "queued" || jb.Existing {
		t.Fatalf("accepted job: %+v", jb)
	}
	if jb.Poll != "/v1/explore/"+jb.JobID {
		t.Errorf("poll URL %q", jb.Poll)
	}

	done := pollJob(t, ts.URL, jb.JobID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.Total != 2 || done.Done != done.Total {
		t.Errorf("progress %d/%d, want 2/2", done.Done, done.Total)
	}
	var fb FrontierBody
	if err := json.Unmarshal(done.Frontier, &fb); err != nil {
		t.Fatalf("frontier body: %v", err)
	}
	if fb.App != "engine" || len(fb.Points) == 0 {
		t.Fatalf("frontier: app=%q points=%d", fb.App, len(fb.Points))
	}
	if fb.Stats.Geometries != 2 || fb.Stats.Configs == 0 {
		t.Errorf("stats: %+v", fb.Stats)
	}

	// An identical POST deduplicates onto the finished job and returns
	// its frontier immediately.
	st2, b2, _ := post(t, ts.URL+"/v1/explore", exploreReq)
	if st2 != http.StatusOK {
		t.Fatalf("dedupe POST: status %d: %s", st2, b2)
	}
	dup := decodeJob(t, b2)
	if !dup.Existing || dup.JobID != jb.JobID || dup.State != "done" {
		t.Fatalf("dedupe job: %+v", dup)
	}
	if !bytes.Equal(dup.Frontier, done.Frontier) {
		t.Error("deduplicated POST returned different frontier bytes")
	}

	// DELETE removes the job; a later GET 404s.
	st3, b3 := del(t, ts.URL+"/v1/explore/"+jb.JobID)
	if st3 != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", st3, b3)
	}
	if st4, _ := get(t, ts.URL+"/v1/explore/"+jb.JobID); st4 != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", st4)
	}
}

// TestExploreDeterministicFrontier is the service-level determinism
// contract: two independent servers produce byte-identical frontier
// bodies for the same request.
func TestExploreDeterministicFrontier(t *testing.T) {
	var frontiers [2]json.RawMessage
	for i := range frontiers {
		_, ts := newTestServer(t, Config{Workers: 2})
		st, b, _ := post(t, ts.URL+"/v1/explore", exploreReq)
		if st != http.StatusAccepted {
			t.Fatalf("server %d: status %d: %s", i, st, b)
		}
		jb := pollJob(t, ts.URL, decodeJob(t, b).JobID)
		if jb.State != "done" {
			t.Fatalf("server %d: job %s: %s", i, jb.State, jb.Error)
		}
		frontiers[i] = jb.Frontier
	}
	if !bytes.Equal(frontiers[0], frontiers[1]) {
		t.Errorf("frontiers differ across servers:\n%s\nvs\n%s", frontiers[0], frontiers[1])
	}
}

// TestExploreCancelQueued holds the only worker slot so the job stays
// queued, then cancels it: the DELETE must win and the worker goroutine
// must abandon the computation.
func TestExploreCancelQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	st, b, _ := post(t, ts.URL+"/v1/explore", exploreReq)
	if st != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", st, b)
	}
	id := decodeJob(t, b).JobID
	st2, b2 := del(t, ts.URL+"/v1/explore/"+id)
	if st2 != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", st2, b2)
	}
	jb := decodeJob(t, b2)
	if jb.State != "failed" || jb.Error != "canceled" {
		t.Fatalf("canceled job: %+v", jb)
	}
}

// TestExploreTableFull fills the one-slot job table with a job that
// cannot run (the worker slot is held) and checks the shed path.
func TestExploreTableFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxJobs: 1})
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	if st, b, _ := post(t, ts.URL+"/v1/explore", exploreReq); st != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", st, b)
	}
	st, b, _ := post(t, ts.URL+"/v1/explore", `{"app":"3d"}`)
	if st != http.StatusTooManyRequests {
		t.Fatalf("POST into full table: status %d: %s", st, b)
	}
	if !strings.Contains(string(b), "job table full") {
		t.Errorf("shed body: %s", b)
	}
}

// TestExploreValidation exercises the synchronous 400 paths.
func TestExploreValidation(t *testing.T) {
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
		if st, b, _ := post(t, ts.URL+"/v1/explore", tc.body); st != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, st, b)
		}
	}
	if st, _ := get(t, ts.URL+"/v1/explore/j999999"); st != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d", st)
	}
	if st, _ := del(t, ts.URL+"/v1/explore/j999999"); st != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d", st)
	}
}

// TestVersionEndpoint checks /v1/version and its echo on /healthz.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, b := get(t, ts.URL+"/v1/version")
	if st != 200 {
		t.Fatalf("/v1/version: status %d: %s", st, b)
	}
	var v VersionInfo
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("version body %s: %v", b, err)
	}
	if !strings.HasPrefix(v.GoVersion, "go") {
		t.Errorf("go_version = %q", v.GoVersion)
	}
	if v != Version() {
		t.Errorf("endpoint version %+v != Version() %+v", v, Version())
	}
	st2, hb := get(t, ts.URL+"/healthz")
	if st2 != 200 || !strings.HasPrefix(string(hb), "ok") {
		t.Errorf("/healthz: status %d body %q", st2, hb)
	}
}
