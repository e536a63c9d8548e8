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

// served is one finished response as a client saw it.
type served struct {
	status int
	body   []byte
	cache  string
	err    error
}

// postAsync posts body to url under ctx and delivers the response on the
// returned channel.
func postAsync(ctx context.Context, url, body string) <-chan served {
	out := make(chan served, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			out <- served{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- served{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		out <- served{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Cache"), err: err}
	}()
	return out
}

// coalesceCold posts n identical requests to a one-worker server whose
// worker is held, waits until every one of them has missed the result
// cache, then frees the worker and returns the n responses.
func coalesceCold(t *testing.T, s *Server, url, req string, n int) []served {
	t.Helper()
	<-s.adm.slots // hold the only worker until every request has arrived
	var outs []<-chan served
	for i := 0; i < n; i++ {
		outs = append(outs, postAsync(context.Background(), url, req))
	}
	waitFor(t, "every request's cache miss", func() bool { return s.cacheMiss.Value() == int64(n) })
	// A miss is counted just before the request joins the computation in
	// flight; give the last one that step before the computation runs.
	time.Sleep(20 * time.Millisecond)
	s.adm.slots <- struct{}{}
	var got []served
	for _, out := range outs {
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		got = append(got, r)
	}
	return got
}

// TestIdenticalColdPartitionsCoalesce: identical /v1/partition misses
// that arrive together make one computation. Every request answers a
// fresh server's bytes as a miss, and the program is measured once,
// with no request waiting on the measurement record itself.
func TestIdenticalColdPartitionsCoalesce(t *testing.T) {
	b, err := json.Marshal(PartitionRequest{Source: longSource})
	if err != nil {
		t.Fatal(err)
	}
	req := string(b)
	want := freshPartition(t, req)
	s, ts := newTestServer(t, Config{Workers: 1})
	for i, r := range coalesceCold(t, s, ts.URL+"/v1/partition", req, 4) {
		if r.status != http.StatusOK || r.cache != "miss" || !bytes.Equal(r.body, want) {
			t.Errorf("request %d: status %d X-Cache %q, want 200 miss with a fresh server's body:\n%s\nvs\n%s",
				i, r.status, r.cache, r.body, want)
		}
	}
	if h, m, w := s.measureHit.Value(), s.measureMiss.Value(), s.measureWait.Value(); h != 0 || m != 1 || w != 0 {
		t.Errorf("measurement hits %d misses %d waits %d, want 0, 1, 0", h, m, w)
	}
}

// TestIdenticalColdFaultsCoalesce: identical misses on a program the
// measurement rejects share the one failed computation and replay its
// 422 body verbatim.
func TestIdenticalColdFaultsCoalesce(t *testing.T) {
	tc := faultingPrograms[0]
	b, err := json.Marshal(PartitionRequest{Source: tc.src})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	for i, r := range coalesceCold(t, s, ts.URL+"/v1/partition", string(b), 4) {
		if r.status != http.StatusUnprocessableEntity || r.cache != "miss" || string(r.body) != tc.body {
			t.Errorf("request %d: status %d X-Cache %q body %q, want 422 miss %q", i, r.status, r.cache, r.body, tc.body)
		}
	}
	if h, m, w := s.measureHit.Value(), s.measureMiss.Value(), s.measureWait.Value(); h != 0 || m != 1 || w != 0 {
		t.Errorf("measurement hits %d misses %d waits %d, want 0, 1, 0", h, m, w)
	}
}

// TestCoalescedClientsGiveUp: a client that leaves does not cancel the
// computation it started or joined. It runs to its end and warms the
// cache, so the next identical request hits with a fresh server's bytes.
func TestCoalescedClientsGiveUp(t *testing.T) {
	b, err := json.Marshal(PartitionRequest{Source: longSource})
	if err != nil {
		t.Fatal(err)
	}
	req := string(b)
	want := freshPartition(t, req)
	for _, tc := range []struct {
		name     string
		leaderUp bool // whether the first client stays
	}{
		{"waiter", true},
		{"leader", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			url := ts.URL + "/v1/partition"
			<-s.adm.slots // hold the only worker
			leaderCtx, quitLeader := context.WithCancel(context.Background())
			defer quitLeader()
			leader := postAsync(leaderCtx, url, req)
			waitFor(t, "the leader to queue", func() bool { return s.adm.queueLen() == 1 })
			waiterCtx, quitWaiter := context.WithCancel(context.Background())
			defer quitWaiter()
			waiter := postAsync(waiterCtx, url, req)
			waitFor(t, "the waiter's cache miss", func() bool { return s.cacheMiss.Value() == 2 })
			time.Sleep(20 * time.Millisecond)
			quit, stay := quitWaiter, leader
			if !tc.leaderUp {
				quit, stay = quitLeader, waiter
			}
			quit()
			s.adm.slots <- struct{}{}
			r := <-stay
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
				t.Fatalf("remaining client: status %d, want 200 with a fresh server's body:\n%s\nvs\n%s", r.status, r.body, want)
			}
			// The result is cached before any client hears of it.
			st, got, c := post(t, url, req)
			if st != http.StatusOK || c != "hit" || !bytes.Equal(got, want) {
				t.Errorf("next request: status %d X-Cache %q, want 200 hit with the same bytes", st, c)
			}
			if m := s.measureMiss.Value(); m != 1 {
				t.Errorf("measurement misses %d, want 1", m)
			}
		})
	}
}

// runawaySource loops until the IR step limit stops it: about 2.5 s of
// simulation at the default 50M budget.
const runawaySource = `var s; func main() { var i; for i = 0; i >= 0; i = i + 0 { s = s + 1; } }`

// TestDeleteFreesWorkerMidMeasurement: a DELETE reaches the ISS run of
// the job's measurement, so the job's worker is free within 250 ms
// instead of at the end of the run.
func TestDeleteFreesWorkerMidMeasurement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	b, err := json.Marshal(ExploreRequest{Source: runawaySource, MaxHW: 1, Geometries: []GeometrySpec{{}}})
	if err != nil {
		t.Fatal(err)
	}
	id := postJob(t, ts.URL, "explore", string(b))
	waitFor(t, "the measurement's miss", func() bool { return s.measureMiss.Value() == 1 })
	time.Sleep(50 * time.Millisecond) // well into the ISS run
	if busy := s.adm.busyWorkers(); busy != 1 {
		t.Fatalf("busy workers %d before the DELETE, want 1", busy)
	}
	start := time.Now()
	if st, body := del(t, ts.URL+"/v1/explore/"+id); st != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", st, body)
	}
	waitFor(t, "the worker", func() bool { return s.adm.busyWorkers() == 0 })
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("the worker was freed %v after the DELETE, want at most 250ms", d)
	}
}
