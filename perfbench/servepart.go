package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/serve"
	"lppart/internal/system"
)

// Traffic of the serve-partition workload: an open loop of Poisson
// arrivals, most of them repeating a pre-warmed hot set of keys.
const (
	partRate        = 100.0 // requests per second
	partHotKeys     = 32
	partHotShare    = 0.8
	partZipfS       = 1.1
	partMaxClusters = 8 // keys draw max_clusters from 1..8
	partSenders     = 2
	partLimit       = 250 * time.Millisecond // goodput latency limit from the due time
	partAttribute   = 40                     // miss keys re-evaluated in process
)

// servePart drives POST /v1/partition on an in-process server.
type servePart struct {
	srv  *server
	apps []apps.App
	seed int64
	hot  [][]byte // hot-set request bodies

	mu     sync.Mutex
	bodies map[string][32]byte // request body → SHA-256 of its first response body
}

func setupServePart(seed int64) (*servePart, error) {
	// One worker per CPU the benchmark allows itself.
	srv, err := startServer(2)
	if err != nil {
		return nil, err
	}
	w := &servePart{srv: srv, apps: apps.All(), seed: seed, bodies: make(map[string][32]byte)}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	for len(w.hot) < partHotKeys {
		req := serve.PartitionRequest{
			App:         w.apps[len(w.hot)%len(w.apps)].Name,
			F:           0.5 + 0.05*float64(rng.Intn(31)),
			MaxClusters: 1 + rng.Intn(partMaxClusters),
		}
		b, err := json.Marshal(req)
		if err != nil {
			srv.close()
			return nil, err
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			w.hot = append(w.hot, b)
		}
	}
	// Warm the hot set through the same two connections the load uses.
	reqs := make([]request, len(w.hot))
	for k := range w.hot {
		reqs[k] = request{body: w.hot[k]}
	}
	w.send(reqs, time.Now(), nil, nil)
	for k := range reqs {
		if reqs[k].err != nil || reqs[k].status != 200 {
			srv.close()
			return nil, fmt.Errorf("warming hot key %s: status %d: %v", w.hot[k], reqs[k].status, reqs[k].err)
		}
	}
	return w, nil
}

// request is one scheduled POST and what came back.
type request struct {
	due    time.Duration // since the schedule's start
	body   []byte
	fresh  bool
	sent   time.Time
	done   time.Time
	status int
	hit    bool
	err    error
}

// schedule draws n arrivals at partRate: a Poisson process conditioned
// on its count, so n uniform due times in sorted order. Phase p of the
// run gets its own stream. Exactly the hot share of the requests repeat
// hot keys; the fresh ones take (application, max_clusters) pairs in
// shuffled blocks of all 48, so the computations behind the misses are
// the same mix in every run.
func (w *servePart) schedule(n, p int) []request {
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(p)))
	zipf := rand.NewZipf(rng, partZipfS, 1, partHotKeys-1)
	span := float64(n) / partRate
	reqs := make([]request, n)
	dues := make([]float64, n)
	for k := range dues {
		dues[k] = rng.Float64() * span
	}
	sort.Float64s(dues)
	fresh := make([]bool, n)
	for k := 0; k < n-int(partHotShare*float64(n)+0.5); k++ {
		fresh[k] = true
	}
	rng.Shuffle(n, func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	var block []int
	for k := range reqs {
		reqs[k].due = time.Duration(dues[k] * float64(time.Second))
		if !fresh[k] {
			reqs[k].body = w.hot[zipf.Uint64()]
			continue
		}
		if len(block) == 0 {
			block = rng.Perm(len(w.apps) * partMaxClusters)
		}
		pair := block[0]
		block = block[1:]
		b, err := json.Marshal(serve.PartitionRequest{
			App:         w.apps[pair%len(w.apps)].Name,
			F:           0.5 + 1.5*rng.Float64(),
			MaxClusters: 1 + pair/len(w.apps),
		})
		if err != nil {
			panic(err) // a PartitionRequest always marshals
		}
		reqs[k].body, reqs[k].fresh = b, true
	}
	return reqs
}

// send issues reqs from partSenders goroutines, each taking the next
// request in due order and sending it no earlier than its due time, and
// returns once all have answered. It returns the most requests ever in
// flight at once and the largest live heap seen after a response.
func (w *servePart) send(reqs []request, start time.Time, sp *spanLog, opBase *int) (int, uint64) {
	var next, inflight, peak atomic.Int64
	var heap atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < partSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				r := &reqs[k]
				if d := time.Until(start.Add(r.due)); d > 0 {
					time.Sleep(d)
				}
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				r.sent = time.Now()
				var out []byte
				r.status, r.hit, out, r.err = w.srv.do("POST", "/v1/partition", r.body)
				r.done = time.Now()
				inflight.Add(-1)
				for h, m := heapBytes(), heap.Load(); h > m && !heap.CompareAndSwap(m, h); m = heap.Load() {
				}
				if r.err == nil && r.status == 200 {
					r.err = w.check(r.body, out)
				}
				if sp != nil {
					op := *opBase + k
					due := start.Add(r.due)
					root := sp.record("op", op, -1, due, r.done)
					sp.record("gen.wait", op, root, due, r.sent)
					name := "serve.miss"
					if r.hit {
						name = "serve.hit"
					}
					sp.record(name, op, root, r.sent, r.done)
				}
			}
		}()
	}
	wg.Wait()
	return int(peak.Load()), heap.Load()
}

// check requires every response body for one request body to be
// byte-identical, whether it was computed or served from the cache.
func (w *servePart) check(req, out []byte) error {
	h := sha256.Sum256(out)
	w.mu.Lock()
	defer w.mu.Unlock()
	prev, ok := w.bodies[string(req)]
	if !ok {
		w.bodies[string(req)] = h
		return nil
	}
	if prev != h {
		return checkf("serve-partition: request %s answered with two different bodies", req)
	}
	return nil
}

// digest covers the hot set's response bodies in hot-set order.
func (w *servePart) digest() string {
	h := sha256.New()
	for _, b := range w.hot {
		sum := w.bodies[string(b)]
		h.Write(b)
		h.Write(sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// run sends one phase's schedule and tallies it into res.
func (w *servePart) run(o options, p int, sp *spanLog, opBase *int, res *result) (*phase, []request) {
	n := o.ops
	if n == 0 {
		n = int(partRate * o.seconds)
	}
	reqs := w.schedule(n, p)
	ph := &phase{spans: sp}
	ph.from = snapshot()
	ph.inflight, ph.heapPeak = w.send(reqs, ph.from.at, sp, opBase)
	ph.to = snapshot()
	*opBase += n
	last := ph.from.at
	for k := range reqs {
		r := &reqs[k]
		due := ph.from.at.Add(r.due)
		lat := r.done.Sub(due)
		ph.latMs = append(ph.latMs, float64(lat)/1e6)
		ph.lateMs = append(ph.lateMs, float64(r.sent.Sub(due))/1e6)
		res.attempted++
		switch {
		case r.err != nil:
			res.note(r.err)
		case r.status != 200:
			res.note(fmt.Errorf("POST /v1/partition %s: status %d", r.body, r.status))
		case lat <= partLimit:
			ph.ok++
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	ph.elapsedS = last.Sub(ph.from.at).Seconds()
	if sp != nil {
		ph.tracedOps = n
	}
	return ph, reqs
}

// runServePartition runs the open-loop workload.
func runServePartition(ctx context.Context, o options) (*result, error) {
	w, setupS, err := setUp(o.setups(), func() (*servePart, error) { return setupServePart(o.seed) },
		func(w *servePart) { w.srv.close() })
	if err != nil {
		return nil, err
	}
	defer w.srv.close()
	res := &result{digest: w.digest()}
	ops := 0
	if !o.trace {
		ph, _ := w.run(o, 0, nil, &ops, res)
		ph.e2e(res, setupS)
		return res, nil
	}
	half := o
	half.seconds = o.seconds / 2
	plain, plainReqs := w.run(half, 0, nil, &ops, res)
	traced, tracedReqs := w.run(half, 1, newSpanLog(), &ops, res)

	var hitMs, missMs []float64
	for _, r := range plainReqs {
		if r.err != nil || r.status != 200 {
			continue
		}
		d := float64(r.done.Sub(r.sent)) / 1e6
		if r.hit {
			hitMs = append(hitMs, d)
		} else {
			missMs = append(missMs, d)
		}
	}
	// Attribution: the computation a miss waits for, in process.
	var computeMs []float64
	for _, r := range tracedReqs {
		if len(computeMs) == partAttribute {
			break
		}
		if !r.fresh || r.hit {
			continue
		}
		var req serve.PartitionRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return nil, err
		}
		a, err := apps.ByName(req.App)
		if err != nil {
			return nil, err
		}
		cfg := system.Config{MaxInstrs: 50_000_000} // the server's default budget
		cfg.Part.F, cfg.Part.MaxClusters = req.F, req.MaxClusters
		t := time.Now()
		src, err := behav.Parse(a.Name, a.Source)
		if err == nil {
			_, err = system.EvaluateCtx(ctx, src, cfg)
		}
		if err != nil {
			return nil, err
		}
		computeMs = append(computeMs, float64(time.Since(t))/1e6)
	}
	self := traced.spans.selfMs()
	n := float64(max(traced.tracedOps, 1))
	misses := 0
	for _, r := range tracedReqs {
		if r.err == nil && r.status == 200 && !r.hit {
			misses++
		}
	}
	compute := percentile("serve.compute_ms_p50", computeMs, 0.5)
	miss50 := percentile("", missMs, 0.5)
	queue := metric{Name: "serve.queue_wait_ms_p50", Value: miss50.Value - compute.Value,
		N: miss50.N, Missing: miss50.Missing || compute.Missing}
	ms := []metric{
		percentile("serve.hit_ms_p50", hitMs, 0.5),
		{Name: "serve.hit_ratio", Value: float64(len(hitMs)) / float64(max(len(hitMs)+len(missMs), 1))},
		percentile("serve.miss_ms_p90", missMs, 0.9),
		compute,
		queue,
	}
	// A miss's HTTP round trip is not covered, only the computation it
	// waits for, at the mean in-process time: the remainder is queueing
	// and transfer, which no span here times directly.
	covered := (self["gen.wait"] + self["serve.hit"] + float64(misses)*mean(computeMs)) / n
	res.metrics = layerList(append(ms, common(plain, traced, covered)...))
	return res, writeSpans(o, traced.spans)
}
