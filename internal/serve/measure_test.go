package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lppart/internal/apps"
	"lppart/internal/memostore"
	"lppart/internal/system"
)

// measureOps reads the measurement tier's hit and miss counters.
func measureOps(s *Server) (hits, misses int64) {
	return s.measureHit.Value(), s.measureMiss.Value()
}

// TestJobMeasurementReplay is the measurement tier's contract for every
// application and both job kinds: once an F=0.7 job has measured a
// program, an F=1.3 job replays both measurement records from the LRU
// and returns exactly the bytes the same request returns on a fresh
// server; a verify job reads no record at all.
func TestJobMeasurementReplay(t *testing.T) {
	warm, wts := newTestServer(t, Config{Workers: 2})
	for _, a := range apps.All() {
		runJobBody(t, wts.URL, "explore", fmt.Sprintf(`{"app":%q,"f":0.7}`, a.Name))
		for _, kind := range []string{"explore", "exact"} {
			req := fmt.Sprintf(`{"app":%q,"f":1.3}`, a.Name)
			_, fts := newTestServer(t, Config{Workers: 2})
			fresh := runJobBody(t, fts.URL, kind, req)
			fts.Close()

			h0, m0 := measureOps(warm)
			got := runJobBody(t, wts.URL, kind, req)
			if h, m := measureOps(warm); h != h0+2 || m != m0 {
				t.Errorf("%s %s: measurement hits +%d misses +%d, want +2 +0", kind, a.Name, h-h0, m-m0)
			}
			if !bytes.Equal(got, fresh) {
				t.Errorf("%s %s: warm-tier body differs from a fresh server's:\n%s\nvs\n%s", kind, a.Name, got, fresh)
			}

			h0, m0 = measureOps(warm)
			runJobBody(t, wts.URL, kind, fmt.Sprintf(`{"app":%q,"f":1.3,"verify":true}`, a.Name))
			if h, m := measureOps(warm); h != h0 || m != m0 {
				t.Errorf("%s %s verify: measurement hits +%d misses +%d, want no lookups", kind, a.Name, h-h0, m-m0)
			}
		}
	}
	if hits, misses := warm.cacheHit.Value(), warm.cacheMiss.Value(); hits != 0 || misses != 0 {
		t.Errorf("request cache counted %d hits, %d misses for job-only traffic, want 0, 0", hits, misses)
	}
}

// TestJobMeasurementRestart: a daemon restarted over the same -store
// directory replays the previous daemon's measurement on its first job
// and returns the previous daemon's bytes; a job on a server whose store
// was closed under it still finishes, measuring cold.
func TestJobMeasurementRestart(t *testing.T) {
	dir := t.TempDir()
	req := `{"app":"engine","f":0.7}`

	st1, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	want := runJobBody(t, ts1.URL, "exact", req)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	h0, m0 := measureOps(s1)
	runJobBody(t, ts1.URL, "explore", `{"app":"digs"}`)
	if h, m := measureOps(s1); h != h0 || m != m0+1 {
		t.Errorf("job over a closed store: measurement hits +%d misses +%d, want +0 +1", h-h0, m-m0)
	}
	ts1.Close()

	st2, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if n := st2.Len(); n != 2 {
		t.Fatalf("store holds %d records, want the engine measurement's 2", n)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	got := runJobBody(t, ts2.URL, "exact", req)
	if h, m := measureOps(s2); h != 2 || m != 0 {
		t.Errorf("restarted daemon: measurement hits %d misses %d, want 2, 0", h, m)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted daemon's body differs:\n%s\nvs\n%s", got, want)
	}
}

// TestJobMeasurementConcurrent runs jobs on three programs at two F
// values at once through a tier small enough to evict (and a store
// behind it), and checks every body against the same job run alone on
// a fresh server. Run it under -race.
func TestJobMeasurementConcurrent(t *testing.T) {
	st, err := memostore.Open(t.TempDir(), memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 4, CacheEntries: 3, Store: st})
	type job struct{ kind, req, id string }
	var jobs []*job
	for _, app := range []string{"engine", "digs", "ckey"} {
		for _, f := range []float64{0.7, 1.3} {
			for _, kind := range []string{"explore", "exact"} {
				j := &job{kind: kind, req: fmt.Sprintf(`{"app":%q,"f":%v,"max_hw":1}`, app, f)}
				code, b, _ := post(t, ts.URL+"/v1/"+kind, j.req)
				if code != http.StatusAccepted {
					t.Fatalf("POST /v1/%s %s: status %d: %s", kind, j.req, code, b)
				}
				j.id = decodeJob(t, b).JobID
				jobs = append(jobs, j)
			}
		}
	}
	for _, j := range jobs {
		jb := pollJobAt(t, ts.URL+"/v1/"+j.kind+"/", j.id)
		if jb.State != "done" {
			t.Fatalf("%s %s: job %s: %s", j.kind, j.req, jb.State, jb.Error)
		}
		got := jb.Frontier
		if j.kind == "exact" {
			got = jb.Exact
		}
		_, fts := newTestServer(t, Config{Workers: 1})
		if want := runJobBody(t, fts.URL, j.kind, j.req); !bytes.Equal(got, want) {
			t.Errorf("%s %s: concurrent body differs from a fresh server's:\n%s\nvs\n%s", j.kind, j.req, got, want)
		}
		fts.Close()
	}
}

// runAppJobs posts every application's job of each kind at F f, then
// polls them all to completion and returns their result fields in
// (application, kind) order.
func runAppJobs(tb testing.TB, base string, kinds []string, f float64) []json.RawMessage {
	tb.Helper()
	type job struct{ kind, id string }
	var posted []job
	for _, a := range apps.All() {
		req := fmt.Sprintf(`{"app":%q,"f":%v}`, a.Name, f)
		for _, kind := range kinds {
			posted = append(posted, job{kind, postJob(tb, base, kind, req)})
		}
	}
	var bodies []json.RawMessage
	for _, j := range posted {
		jb := pollJobAt(tb, base+"/v1/"+j.kind+"/", j.id)
		if jb.State != "done" {
			tb.Fatalf("%s job %s: %s: %s", j.kind, j.id, jb.State, jb.Error)
		}
		bodies = append(bodies, jobResultField(j.kind, jb))
	}
	return bodies
}

// postJob posts one job, requires a 202 and returns the job's ID.
func postJob(tb testing.TB, base, kind, req string) string {
	tb.Helper()
	st, b, _ := post(tb, base+"/v1/"+kind, req)
	if st != http.StatusAccepted {
		tb.Fatalf("POST /v1/%s %s: status %d: %s", kind, req, st, b)
	}
	return decodeJob(tb, b).JobID
}

// jobResultField returns a finished job's result field for its kind.
func jobResultField(kind string, jb *JobBody) json.RawMessage {
	if kind == "exact" {
		return jb.Exact
	}
	return jb.Frontier
}

// TestColdJobsCoalesce is the one-cold-measurement-per-program contract:
// explore and exact jobs for all six applications posted at once on a
// fresh server measure each program once. Each program's first lookup
// misses; its other job reads the measurement and sweep records, after
// waiting for them if they are being measured. So the tier counts 6
// misses and 12 hits, and every body is the same job's alone on a fresh
// server. Run it under -race.
func TestColdJobsCoalesce(t *testing.T) {
	kinds := []string{"explore", "exact"}
	s, ts := newTestServer(t, Config{})
	got := runAppJobs(t, ts.URL, kinds, 1)
	if h, m := measureOps(s); h != 12 || m != 6 {
		t.Errorf("measurement hits %d misses %d, want 12, 6", h, m)
	}
	i := 0
	for _, a := range apps.All() {
		req := fmt.Sprintf(`{"app":%q,"f":1}`, a.Name)
		for _, kind := range kinds {
			_, fts := newTestServer(t, Config{})
			if want := runJobBody(t, fts.URL, kind, req); !bytes.Equal(got[i], want) {
				t.Errorf("%s %s: coalesced body differs from a fresh server's:\n%s\nvs\n%s", kind, a.Name, got[i], want)
			}
			fts.Close()
			i++
		}
	}
}

// longSource is a program whose initial-design ISS run lasts long
// enough that a second computation on it arrives while the first is
// still measuring.
const longSource = `var a[64]; var s;
func main() { var r; var i; for i = 0; i < 64; i = i + 1 { a[i] = i; }
  for r = 0; r < 10000; r = r + 1 { for i = 0; i < 64; i = i + 1 { s = s + a[i] * r; } } }`

// longJob is a one-geometry job request on longSource.
func longJob(t *testing.T) string {
	b, err := json.Marshal(ExploreRequest{Source: longSource, MaxHW: 1, Geometries: []GeometrySpec{{}}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestColdLeaderDeleted: a job waiting for another job's measurement of
// its program outlives that job's DELETE. The cancelled leader writes no
// record, so the follower measures itself (2 misses) and finishes with a
// fresh server's bytes. Run it under -race.
func TestColdLeaderDeleted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := longJob(t)
	leader := postJob(t, ts.URL, "explore", req)
	waitFor(t, "the leader's miss", func() bool { return s.measureMiss.Value() >= 1 })
	follower := postJob(t, ts.URL, "exact", req)
	waitFor(t, "the follower's wait", func() bool { return s.measureWait.Value() >= 1 })
	if st, b := del(t, ts.URL+"/v1/explore/"+leader); st != http.StatusOK {
		t.Fatalf("DELETE leader: status %d: %s", st, b)
	}
	jb := pollJobAt(t, ts.URL+"/v1/exact/", follower)
	if jb.State != "done" {
		t.Fatalf("follower: %s: %s", jb.State, jb.Error)
	}
	if m := s.measureMiss.Value(); m != 2 {
		t.Errorf("measurement misses %d, want 2 (the deleted leader's and the follower's)", m)
	}
	_, fts := newTestServer(t, Config{})
	if want := runJobBody(t, fts.URL, "exact", req); !bytes.Equal(jb.Exact, want) {
		t.Errorf("follower's body differs from a fresh server's:\n%s\nvs\n%s", jb.Exact, want)
	}
}

// TestColdFollowerDeadline: a job whose deadline passes while it waits
// for another computation's measurement fails with its kind's deadline
// message instead of hanging. Posting the same request again after the
// failure runs a new job, which measures.
func TestColdFollowerDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 2 * time.Second})
	a, err := apps.ByName("engine")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for a leader whose measurement outlasts every deadline.
	leader := s.newMeasureTier(context.Background())
	key := system.MeasureKey(system.Fingerprint(ir, system.Config{MaxInstrs: s.cfg.MaxInstrs}))
	if _, ok, _ := leader.Get(key); ok {
		t.Fatal("a fresh server hit the measurement record")
	}
	const req = `{"app":"engine","max_hw":1,"geometries":[{}]}`
	ids := map[*jobKind]string{}
	for _, k := range jobKinds {
		ids[k] = postJob(t, ts.URL, k.name, req)
	}
	for _, k := range jobKinds {
		jb := pollJobAt(t, ts.URL+"/v1/"+k.name+"/", ids[k])
		if jb.State != "failed" || jb.Error != k.deadlineMsg {
			t.Errorf("%s follower: %s %q, want failed %q", k.name, jb.State, jb.Error, k.deadlineMsg)
		}
	}
	if w := s.measureWait.Value(); w != 2 {
		t.Errorf("measurement waits %d, want 2", w)
	}
	leader.done()
	for _, k := range jobKinds {
		id := postJob(t, ts.URL, k.name, req)
		if id == ids[k] {
			t.Fatalf("%s: the repeated request deduplicated onto the failed job %s", k.name, id)
		}
		if jb := pollJobAt(t, ts.URL+"/v1/"+k.name+"/", id); jb.State != "done" {
			t.Errorf("%s after the lease ended: %s: %s", k.name, jb.State, jb.Error)
		}
	}
}

// TestMeasureTierHitZeroAlloc: a lookup that hits neither waits on a
// lease another computation holds on its key nor allocates.
func TestMeasureTierHitZeroAlloc(t *testing.T) {
	s := New(Config{})
	key := memostore.Key{1}
	holder := s.newMeasureTier(context.Background())
	defer holder.done()
	if _, ok, _ := holder.Get(key); ok {
		t.Fatal("a fresh server hit the record")
	}
	s.tierPut(key, []byte("record"))
	reader := s.newMeasureTier(context.Background())
	defer reader.done()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, _ := reader.Get(key); !ok {
			t.Fatal("the record put under a held lease missed")
		}
	})
	if w := s.measureWait.Value(); w != 0 {
		t.Errorf("hits waited %d times, want 0", w)
	}
	if allocs != 0 {
		t.Errorf("a tier hit allocates %.0f times, want 0", allocs)
	}
}

// postConcurrently posts every body to url at once and returns the
// response bodies in order, failing on any non-200 answer.
func postConcurrently(t *testing.T, url string, reqs []string) [][]byte {
	bodies := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req string) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", strings.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, %v: %s", req, resp.StatusCode, err, b)
			}
			bodies[i] = b
		}(i, req)
	}
	wg.Wait()
	return bodies
}

// TestColdPartitionsCoalesce: two /v1/partition misses at different F on
// one program, arriving together, measure it once, and both bodies are
// a fresh server's.
func TestColdPartitionsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	reqs := []string{`{"app":"MPG","f":0.7}`, `{"app":"MPG","f":1.3}`}
	bodies := postConcurrently(t, ts.URL+"/v1/partition", reqs)
	if h, m := measureOps(s); h != 1 || m != 1 {
		t.Errorf("measurement hits %d misses %d, want 1, 1", h, m)
	}
	for i, req := range reqs {
		if want := freshPartition(t, req); !bytes.Equal(bodies[i], want) {
			t.Errorf("%s: body differs from a fresh server's:\n%s\nvs\n%s", req, bodies[i], want)
		}
	}
}

// TestColdJobsFollowPartition: jobs that arrive while a /v1/partition
// miss measures their program wait for its measurement record, then miss
// the sweep record, which the partition path does not write. The first
// job to miss it measures; the other waits for that job's records. So
// the tier counts the partition's miss and one sweep-key miss, and every
// body is a fresh server's.
func TestColdJobsFollowPartition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	preq, err := json.Marshal(PartitionRequest{Source: longSource})
	if err != nil {
		t.Fatal(err)
	}
	part := make(chan []byte, 1)
	go func() { part <- postConcurrently(t, ts.URL+"/v1/partition", []string{string(preq)})[0] }()
	waitFor(t, "the partition's miss", func() bool { return s.measureMiss.Value() >= 1 })
	req := longJob(t)
	kinds := []string{"explore", "exact"}
	var ids []string
	for _, kind := range kinds {
		ids = append(ids, postJob(t, ts.URL, kind, req))
	}
	var got []json.RawMessage
	for i, kind := range kinds {
		jb := pollJobAt(t, ts.URL+"/v1/"+kind+"/", ids[i])
		if jb.State != "done" {
			t.Fatalf("%s: %s: %s", kind, jb.State, jb.Error)
		}
		got = append(got, jobResultField(kind, jb))
	}
	pbody := <-part
	if h, m := measureOps(s); h != 3 || m != 2 {
		t.Errorf("measurement hits %d misses %d, want 3, 2", h, m)
	}
	if want := freshPartition(t, string(preq)); !bytes.Equal(pbody, want) {
		t.Errorf("partition body differs from a fresh server's:\n%s\nvs\n%s", pbody, want)
	}
	for i, kind := range kinds {
		_, fts := newTestServer(t, Config{})
		if want := runJobBody(t, fts.URL, kind, req); !bytes.Equal(got[i], want) {
			t.Errorf("%s body differs from a fresh server's:\n%s\nvs\n%s", kind, got[i], want)
		}
		fts.Close()
	}
}

// BenchmarkJobTraffic times the six applications' explore and exact jobs
// under the kinds of traffic the measurement tier sees, and reports
// measure_hit_%, the share of measurement-record lookups that hit.
//
//   - distinct: every job's program is new to its server (each op runs
//     each kind on a fresh server), so every lookup misses and each job
//     pays the record encodes and LRU inserts on top of its cold
//     measurement; distinct-store also appends the records to a fresh
//     -store directory.
//   - cold-pair: each op posts both kinds for every application at once
//     to a fresh server, so two jobs arrive together on each new
//     program; it reports measure_misses/op, 6 when each program is
//     measured once.
//   - repeated: one server, warmed by one round, runs each op's twelve
//     jobs at a new F, so every job replays its program's measurement.
func BenchmarkJobTraffic(b *testing.B) {
	kinds := []string{"explore", "exact"}
	share := func(b *testing.B, hits, misses int64) {
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "measure_hit_%")
		}
	}
	distinct := func(b *testing.B, withStore bool) {
		b.ReportAllocs()
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			for _, kind := range kinds {
				var cfg Config
				if withStore {
					st, err := memostore.Open(b.TempDir(), memostore.Options{})
					if err != nil {
						b.Fatal(err)
					}
					cfg.Store = st
				}
				s, ts := newTestServer(b, cfg)
				runAppJobs(b, ts.URL, []string{kind}, 1)
				ts.Close()
				if cfg.Store != nil {
					cfg.Store.Close()
				}
				h, m := measureOps(s)
				hits, misses = hits+h, misses+m
			}
		}
		share(b, hits, misses)
	}
	b.Run("distinct", func(b *testing.B) { distinct(b, false) })
	b.Run("distinct-store", func(b *testing.B) { distinct(b, true) })
	b.Run("cold-pair", func(b *testing.B) {
		b.ReportAllocs()
		var misses int64
		for i := 0; i < b.N; i++ {
			s, ts := newTestServer(b, Config{})
			runAppJobs(b, ts.URL, kinds, 1)
			ts.Close()
			_, m := measureOps(s)
			misses += m
		}
		b.ReportMetric(float64(misses)/float64(b.N), "measure_misses/op")
	})
	b.Run("repeated", func(b *testing.B) {
		b.ReportAllocs()
		s, ts := newTestServer(b, Config{})
		runAppJobs(b, ts.URL, kinds, 0.5)
		h0, m0 := measureOps(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAppJobs(b, ts.URL, kinds, 0.6+0.001*float64(i))
		}
		b.StopTimer()
		h, m := measureOps(s)
		share(b, h-h0, m-m0)
	})
}

// TestPartitionMeasurementReplay is the measurement tier's contract for
// /v1/partition on every application: once a request at F=0.7 with a
// cluster budget of 3 has measured a program, a miss at F=1.3 with a
// budget of 5 replays the measurement with exactly one record lookup
// and returns exactly the bytes the same request returns on a fresh
// server; a verify request reads no record at all.
func TestPartitionMeasurementReplay(t *testing.T) {
	warm, wts := newTestServer(t, Config{Workers: 2})
	for _, a := range apps.All() {
		if st, b, _ := post(t, wts.URL+"/v1/partition", fmt.Sprintf(`{"app":%q,"f":0.7,"max_clusters":3}`, a.Name)); st != http.StatusOK {
			t.Fatalf("%s warm-up: status %d: %s", a.Name, st, b)
		}
		req := fmt.Sprintf(`{"app":%q,"f":1.3,"max_clusters":5}`, a.Name)
		want := freshPartition(t, req)

		h0, m0 := measureOps(warm)
		st, got, c := post(t, wts.URL+"/v1/partition", req)
		if st != http.StatusOK || c != "miss" {
			t.Fatalf("%s: status %d X-Cache %q: %s", a.Name, st, c, got)
		}
		if h, m := measureOps(warm); h != h0+1 || m != m0 {
			t.Errorf("%s: measurement hits +%d misses +%d, want +1 +0", a.Name, h-h0, m-m0)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed body differs from a fresh server's:\n%s\nvs\n%s", a.Name, got, want)
		}

		h0, m0 = measureOps(warm)
		vreq := fmt.Sprintf(`{"app":%q,"f":1.3,"verify":true}`, a.Name)
		if st, b, _ := post(t, wts.URL+"/v1/partition", vreq); st != http.StatusOK {
			t.Fatalf("%s verify: status %d: %s", a.Name, st, b)
		}
		if h, m := measureOps(warm); h != h0 || m != m0 {
			t.Errorf("%s verify: measurement hits +%d misses +%d, want no lookups", a.Name, h-h0, m-m0)
		}
	}
}

// freshPartition returns the body a fresh server answers req with.
func freshPartition(t *testing.T, req string) []byte {
	t.Helper()
	_, fts := newTestServer(t, Config{Workers: 2})
	defer fts.Close()
	st, b, _ := post(t, fts.URL+"/v1/partition", req)
	if st != http.StatusOK {
		t.Fatalf("fresh server %s: status %d: %s", req, st, b)
	}
	return b
}

// TestPartitionThenJobShareMeasurement: a partition miss and a job on
// the same program key one measurement record, so an explore job after
// the partition hits it (and misses only the sweep record, which the
// partition path does not write), and returns a fresh server's bytes.
func TestPartitionThenJobShareMeasurement(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if st, b, _ := post(t, ts.URL+"/v1/partition", `{"app":"engine","f":0.7}`); st != http.StatusOK {
		t.Fatalf("partition: status %d: %s", st, b)
	}
	h0, m0 := measureOps(s)
	req := `{"app":"engine","f":1.3}`
	got := runJobBody(t, ts.URL, "explore", req)
	if h, m := measureOps(s); h != h0+1 || m != m0+1 {
		t.Errorf("explore after partition: measurement hits +%d misses +%d, want +1 +1", h-h0, m-m0)
	}
	_, fts := newTestServer(t, Config{Workers: 2})
	if want := runJobBody(t, fts.URL, "explore", req); !bytes.Equal(got, want) {
		t.Errorf("explore body differs from a fresh server's:\n%s\nvs\n%s", got, want)
	}
}

// TestSweepThenPartitionShareMeasurement: /v1/sweep puts its
// initial-design measurement into the tiers, so a /v1/partition miss on
// the same program replays it instead of measuring again, and both
// bodies are a fresh server's bytes.
func TestSweepThenPartitionShareMeasurement(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const sweepReq, partReq = `{"app":"digs"}`, `{"app":"digs","f":1.3}`
	st, sweep, _ := post(t, ts.URL+"/v1/sweep", sweepReq)
	if st != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", st, sweep)
	}
	h0, m0 := measureOps(s)
	st, got, c := post(t, ts.URL+"/v1/partition", partReq)
	if st != http.StatusOK || c != "miss" {
		t.Fatalf("partition: status %d X-Cache %q: %s", st, c, got)
	}
	if h, m := measureOps(s); h != h0+1 || m != m0 {
		t.Errorf("partition after sweep: measurement hits +%d misses +%d, want +1 +0", h-h0, m-m0)
	}
	if want := freshPartition(t, partReq); !bytes.Equal(got, want) {
		t.Errorf("partition body differs from a fresh server's:\n%s\nvs\n%s", got, want)
	}
	_, fts := newTestServer(t, Config{Workers: 2})
	defer fts.Close()
	if _, want, _ := post(t, fts.URL+"/v1/sweep", sweepReq); !bytes.Equal(sweep, want) {
		t.Errorf("sweep body differs from a fresh server's:\n%s\nvs\n%s", sweep, want)
	}
}

// TestPartitionDigestMismatchFallsBackCold: a measurement record whose
// globals digest is flipped fails the replay's cross-check; the miss
// recomputes cold, returns a fresh server's bytes and rewrites the
// record.
func TestPartitionDigestMismatchFallsBackCold(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if st, b, _ := post(t, ts.URL+"/v1/partition", `{"app":"MPG","f":0.7}`); st != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", st, b)
	}
	a, err := apps.ByName("MPG")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Config{MaxInstrs: s.cfg.MaxInstrs}
	key := system.MeasureKey(system.Fingerprint(ir, cfg))
	good, ok := s.cache.get(key)
	if !ok {
		t.Fatal("the partition miss cached no measurement record")
	}
	m := system.DecodeMeasurement(good, cfg)
	m.Globals[31] ^= 0x80
	s.cache.add(key, system.EncodeMeasurement(m))

	req := `{"app":"MPG","f":1.3}`
	h0, m0 := measureOps(s)
	st, got, _ := post(t, ts.URL+"/v1/partition", req)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, got)
	}
	if h, m := measureOps(s); h != h0+1 || m != m0 {
		t.Errorf("measurement hits +%d misses +%d, want +1 +0", h-h0, m-m0)
	}
	if want := freshPartition(t, req); !bytes.Equal(got, want) {
		t.Errorf("body after a digest mismatch differs from a fresh server's:\n%s\nvs\n%s", got, want)
	}
	if rec, _ := s.cache.get(key); !bytes.Equal(rec, good) {
		t.Error("the cold fallback did not rewrite the measurement record")
	}
}

// TestPartitionMeasurementConcurrent posts partitions of three programs
// at three F values at once through a tier small enough to evict, so
// misses race to measure, store, replay and evict the same records, and
// checks every body against the same request on a fresh server. Run it
// under -race.
func TestPartitionMeasurementConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheEntries: 3})
	var reqs []string
	for _, app := range []string{"engine", "digs", "ckey"} {
		for _, f := range []float64{0.7, 1, 1.3} {
			reqs = append(reqs, fmt.Sprintf(`{"app":%q,"f":%v}`, app, f))
		}
	}
	bodies := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, %v: %s", req, resp.StatusCode, err, b)
			}
			bodies[i] = b
		}(i, req)
	}
	wg.Wait()
	for i, req := range reqs {
		if want := freshPartition(t, req); !bytes.Equal(bodies[i], want) {
			t.Errorf("%s: concurrent body differs from a fresh server's:\n%s\nvs\n%s", req, bodies[i], want)
		}
	}
}

// postApps posts every application's partition request at F f and
// fails on any non-200 answer.
func postApps(tb testing.TB, base string, f float64) {
	tb.Helper()
	for _, a := range apps.All() {
		req := fmt.Sprintf(`{"app":%q,"f":%v}`, a.Name, f)
		if st, b, _ := post(tb, base+"/v1/partition", req); st != http.StatusOK {
			tb.Fatalf("POST /v1/partition %s: status %d: %s", req, st, b)
		}
	}
}

// BenchmarkPartitionTraffic times the six applications' /v1/partition
// misses under the two kinds of traffic the measurement tier sees, and
// reports measure_hit_%, the share of measurement-record lookups that
// hit.
//
//   - distinct: every request's program is new to its server (each op
//     posts the six applications to a fresh server), so every lookup
//     misses and each miss pays a record encode and an LRU insert on
//     top of its cold measurement.
//   - repeated: one server, warmed by one round, answers each op's six
//     requests at a new F, so every miss replays its program's
//     measurement.
func BenchmarkPartitionTraffic(b *testing.B) {
	share := func(b *testing.B, hits, misses int64) {
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "measure_hit_%")
		}
	}
	b.Run("distinct", func(b *testing.B) {
		b.ReportAllocs()
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			s, ts := newTestServer(b, Config{})
			postApps(b, ts.URL, 1)
			ts.Close()
			h, m := measureOps(s)
			hits, misses = hits+h, misses+m
		}
		share(b, hits, misses)
	})
	b.Run("repeated", func(b *testing.B) {
		b.ReportAllocs()
		s, ts := newTestServer(b, Config{})
		postApps(b, ts.URL, 0.5)
		h0, m0 := measureOps(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postApps(b, ts.URL, 0.6+0.001*float64(i))
		}
		b.StopTimer()
		h, m := measureOps(s)
		share(b, h-h0, m-m0)
	})
}
