// Package serve is the partitioning-as-a-service layer: an HTTP/JSON API
// over the repo's design flow. The paper's Fig. 1 loop is a pure
// function from (application, F, N_max^c, GEQ budget, core count,
// resource sets) to a partitioning decision, which makes it an ideal
// cacheable service: every response body is a deterministic function of
// the request, so identical requests produce byte-identical bodies
// whether computed fresh, coalesced onto an in-flight computation, or
// replayed from the LRU result cache.
//
// The stack, front to back:
//
//	handler → canonical request hash → LRU result cache
//	        → result lease (one computation per identical in-flight key)
//	        → admission control (bounded worker pool + bounded queue,
//	          429/503 shedding) → system.EvaluateCtx / trace sweep
//	        → record leases (one measurement per program in flight)
//
// Endpoints: POST /v1/partition (full decision trail + Table 1 row,
// optional server-side verification), POST /v1/sweep (cache-geometry
// sweep via the single-pass stack-distance profiler), the async job
// pair POST /v1/explore (branch-and-bound Pareto frontier) and POST
// /v1/exact (certified exact optimum per geometry via the milp
// oracle, certificates replayed server-side before the job finishes),
// GET /v1/apps (the built-in Table 1 applications), plus /healthz,
// /readyz and a Prometheus-text /metrics. POST /v1/batch runs many
// partitions in one call and GET /v1/jobs lists the node's jobs; see
// batch.go.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/memostore"
	"lppart/internal/serve/jobs"
	"lppart/internal/serve/metrics"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// Config sizes one server.
type Config struct {
	// Workers bounds concurrent evaluations (default 4). Each admitted
	// evaluation runs on one goroutine: request-level parallelism is
	// this pool's, not the inside of one slot's.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker before new arrivals are shed with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024).
	CacheEntries int
	// Timeout is the per-request evaluation deadline (default 30s),
	// propagated into the design flow via context.
	Timeout time.Duration
	// MaxSourceBytes caps served behavioral sources (default
	// behav.DefaultMaxSourceBytes).
	MaxSourceBytes int
	// MaxInstrs bounds the ISS runs of served evaluations, in
	// instructions and in IR steps (see system.Config.MaxInstrs), so an
	// adversarial source cannot pin a worker for the full default
	// simulation budget (default 50M).
	MaxInstrs int64
	// MaxJobs bounds the async job table; once every slot holds an
	// unfinished job, new POST /v1/explore and POST /v1/exact requests
	// are shed with 429 (default 64).
	MaxJobs int
	// Store, when non-nil, persistently backs the result cache:
	// successful (200) bodies and the measurement records of partition
	// misses, explore/exact jobs and cold sweeps (which write the record
	// but never read it) are written through to the
	// content-addressed store and replayed verbatim on a hit, so a
	// restarted daemon — or another node opening the directory
	// read-only — answers previously-computed requests byte-identically
	// without recomputing them, and measures no program twice. Non-200
	// outcomes are never persisted, mirroring the in-memory cache's
	// rule.
	Store *memostore.Store
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = behav.DefaultMaxSourceBytes
	}
	if c.MaxInstrs <= 0 {
		c.MaxInstrs = 50_000_000
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
}

// maxBodyBytes caps request bodies; a request is at most a source plus
// small knobs, so cap at the source cap plus slack.
const bodySlackBytes = 64 << 10

// Server is one lppartd instance.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	adm   *admission
	cache *lruCache
	jobs  *jobs.Store
	reg   *metrics.Registry

	// baseCtx parents every computation; abort cancels it.
	baseCtx context.Context
	abort   context.CancelFunc

	// Instruments.
	cacheHit  *metrics.Counter
	cacheMiss *metrics.Counter
	cacheEvic *metrics.Counter
	// Measurement-record lookups (partition misses and jobs) in the
	// same tiers (measureTier); measureWait counts the lookups that
	// waited for another computation's lease.
	measureHit  *metrics.Counter
	measureMiss *metrics.Counter
	measureWait *metrics.Counter

	// leases is the in-flight table: each key whose bytes a computation
	// is producing, a response body (resultFor) or a measurement record
	// (measureTier), maps to its lease (takeOrWait).
	leaseMu sync.Mutex
	leases  map[memostore.Key]*lease
}

// outcomeNames are instrumented up front for every route, so the
// /metrics exposition is complete (all-zero) from the first scrape.
var outcomeNames = []string{
	"ok", "cache_hit", "shed_queue", "shed_drain", "deadline",
	"bad_request", "error",
}

// New returns a ready-to-serve server.
func New(cfg Config) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background()) //lint:ctx server-lifetime root, cancelled by Shutdown/Abort
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth),
		cache:   newLRUCache(cfg.CacheEntries),
		jobs:    jobs.NewStore(cfg.MaxJobs),
		reg:     metrics.NewRegistry(),
		leases:  make(map[memostore.Key]*lease),
		baseCtx: ctx,
		abort:   cancel,
	}
	s.cacheHit = s.reg.Counter("lppartd_cache_ops_total", "result cache operations", metrics.Labels("op", "hit"))
	s.cacheMiss = s.reg.Counter("lppartd_cache_ops_total", "result cache operations", metrics.Labels("op", "miss"))
	s.cacheEvic = s.reg.Counter("lppartd_cache_ops_total", "result cache operations", metrics.Labels("op", "evict"))
	const measureHelp = "measurement record lookups: a miss measures, a wait waited for another computation's measurement of the program"
	s.measureHit = s.reg.Counter("lppartd_measure_ops_total", measureHelp, metrics.Labels("op", "hit"))
	s.measureMiss = s.reg.Counter("lppartd_measure_ops_total", measureHelp, metrics.Labels("op", "miss"))
	s.measureWait = s.reg.Counter("lppartd_measure_ops_total", measureHelp, metrics.Labels("op", "wait"))
	s.reg.GaugeFunc("lppartd_queue_depth", "requests waiting for a worker", "",
		func() float64 { return float64(s.adm.queueLen()) })
	s.reg.GaugeFunc("lppartd_workers", "worker pool size", "",
		func() float64 { return float64(cfg.Workers) })
	s.reg.GaugeFunc("lppartd_workers_busy", "workers currently evaluating", "",
		func() float64 { return float64(s.adm.busyWorkers()) })
	s.reg.GaugeFunc("lppartd_worker_utilization", "busy workers / pool size", "",
		func() float64 { return float64(s.adm.busyWorkers()) / float64(cfg.Workers) })
	s.reg.GaugeFunc("lppartd_cache_entries", "result cache occupancy (response bodies and measurement records)", "",
		func() float64 { return float64(s.cache.len()) })
	for _, st := range []jobs.State{jobs.Queued, jobs.Running, jobs.Done, jobs.Failed} {
		st := st
		s.reg.GaugeFunc("lppartd_jobs", "async explore/exact jobs by state",
			metrics.Labels("state", st.String()),
			func() float64 { return float64(s.jobs.Count(st)) })
	}

	s.handle("POST /v1/partition", "partition", s.handlePartition)
	s.handle("POST /v1/sweep", "sweep", s.handleSweep)
	for _, k := range jobKinds {
		s.handle("POST /v1/"+k.name, k.name, s.submitJob(k))
		s.handle("GET /v1/"+k.name+"/{id}", k.name, s.jobStatus(k))
		s.handle("DELETE /v1/"+k.name+"/{id}", k.name, s.jobStatus(k))
	}
	s.handle("POST /v1/batch", "batch", s.handleBatch)
	s.handle("GET /v1/jobs", "jobs", s.handleJobs)
	s.handle("GET /v1/apps", "apps", s.handleApps)
	s.handle("GET /v1/version", "version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, healthLine())
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.adm.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	return s
}

// Handler returns the HTTP handler (for http.Server or tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (for tests and embedding).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Drain stops admitting new evaluations: /readyz flips to 503 and new
// requests are shed with 503, while in-flight evaluations run to
// completion. Call it on SIGTERM before http.Server.Shutdown so a load
// balancer stops routing here while the tail drains.
func (s *Server) Drain() { s.adm.drain() }

// Abort cancels every in-flight evaluation (the hard phase of shutdown,
// after the drain grace period).
func (s *Server) Abort() { s.abort() }

// handle registers one instrumented route. h returns its response
// instead of writing it; handle writes it, counts its outcome and times
// it, so the route's endpoint×outcome series exist from the first scrape
// and this is the package's one clock read.
func (s *Server) handle(pattern, endpoint string, h func(http.ResponseWriter, *http.Request) *result) {
	latency := s.reg.Histogram("lppartd_request_seconds", "request latency by endpoint",
		metrics.Labels("endpoint", endpoint), metrics.LatencyBuckets())
	outcomes := make(map[string]*metrics.Counter, len(outcomeNames))
	for _, oc := range outcomeNames {
		outcomes[oc] = s.reg.Counter("lppartd_requests_total", "requests by endpoint and outcome",
			metrics.Labels("endpoint", endpoint, "outcome", oc))
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:nondet latency metric only; never in a response body
		res := h(w, r)
		writeResult(w, res)
		outcomes[outcomeOf(res)].Inc()
		latency.Observe(time.Since(start).Seconds())
	})
}

// result is a finished response, ready to write or to replay to every
// request waiting on its lease: a success or an API error.
type result struct {
	status   int
	body     []byte
	cacheHit bool // served from the result cache, for the X-Cache header
}

// writeResult writes a prepared body verbatim.
func writeResult(w http.ResponseWriter, res *result) {
	w.Header().Set("Content-Type", "application/json")
	if res.cacheHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// storeKey maps a canonical request hash to its content address in the
// LRU and the persistent result store. The prefix versions the stored
// schema: bump it if response bodies ever change shape for the same
// request.
func storeKey(key string) memostore.Key {
	return sha256.Sum256([]byte("lppartd/result/v1\x00" + key))
}

// jsonBody marshals a response body the one canonical way (compact
// encoding/json + trailing newline); both the cached and the computed
// path serve exactly these bytes.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: response not marshalable: " + err.Error())
	}
	return append(b, '\n')
}

// errResult renders an apiError as a result.
func errResult(e *apiError) *result {
	return &result{status: e.Status, body: jsonBody(e)}
}

// outcomeOf classifies a finished result for the metrics.
func outcomeOf(res *result) string {
	switch {
	case res.cacheHit:
		return "cache_hit"
	case res.status == http.StatusOK || res.status == http.StatusAccepted:
		return "ok"
	case res.status == http.StatusTooManyRequests:
		return "shed_queue"
	case res.status == http.StatusServiceUnavailable:
		return "shed_drain"
	case res.status == http.StatusGatewayTimeout:
		return "deadline"
	case res.status >= 500:
		return "error"
	default:
		return "bad_request"
	}
}

// resultFor runs the cached → coalesced → computed ladder for one
// canonical key. The first miss takes the key's result lease and
// computes inline under the server's context: bounded by the configured
// timeout, cancelled by Abort, independent of its own and every other
// client. Later misses wait on the lease, bounded by their own request
// context plus the configured timeout, and replay the leader's result
// verbatim, whatever its status. The batch endpoint runs many keys
// through the same ladder.
func (s *Server) resultFor(r *http.Request, key string,
	compute func(ctx context.Context) *result) *result {
	// Only 200 bodies are ever cached, so a hit replays the stored bytes
	// verbatim as a 200.
	sk := storeKey(key)
	if body, ok := s.tierGet(sk); ok {
		s.cacheHit.Inc()
		return &result{status: http.StatusOK, body: body, cacheHit: true}
	}
	s.cacheMiss.Inc()
	waitCtx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	for {
		l, err := s.takeOrWait(waitCtx, sk, nil)
		if err != nil {
			return errResult(&apiError{Status: http.StatusGatewayTimeout, Err: "request deadline exceeded"})
		}
		if l == nil {
			return s.lead(sk, compute)
		}
		if l.res != nil {
			return l.res
		}
		// The leader ended its lease without a result (it panicked): lead.
	}
}

// lead computes a result under the lease on sk the caller holds, taking
// a worker slot only now, and ends the lease with the result.
func (s *Server) lead(sk memostore.Key, compute func(ctx context.Context) *result) (res *result) {
	defer func() { s.endLease(sk, res) }()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
	defer cancel()
	if aerr := s.adm.acquire(ctx); aerr != nil {
		return errResult(aerr)
	}
	defer s.adm.release()
	res = compute(ctx)
	if res.status == http.StatusOK {
		// Only successes warm the cache; sheds and failures must not
		// mask a later, healthier attempt.
		_ = s.tierPut(sk, res.body) //lint:err persistence must never fail a served request
	}
	return res
}

// decodeBody decodes a JSON request body with a hard size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes+bodySlackBytes))
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: " + err.Error())
	}
	return nil
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) *result {
	var req PartitionRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return errResult(aerr)
	}
	prog, sets, key, aerr := req.canonicalize(s.cfg.MaxSourceBytes)
	if aerr != nil {
		return errResult(aerr)
	}
	return s.resultFor(r, key, s.partitionCompute(&req, prog, sets, key))
}

// partitionCompute is the /v1/partition evaluation as a compute
// function, shared by the single and batch endpoints.
func (s *Server) partitionCompute(req *PartitionRequest, prog *behav.Program,
	sets []tech.ResourceSet, key string) func(ctx context.Context) *result {
	return func(ctx context.Context) *result {
		cfg := system.Config{MaxInstrs: s.cfg.MaxInstrs}
		cfg.Part.F = req.F
		cfg.Part.MaxClusters = req.MaxClusters
		cfg.Part.GEQBudget = req.GEQBudget
		cfg.Part.MaxCores = req.MaxCores
		cfg.Part.ResourceSets = sets
		cfg.Part.Verify = req.Verify
		// The initial-design measurement does not depend on F or the
		// other knobs: a miss on a program the server has measured, or
		// is measuring, for any request or job replays it from the tiers.
		tier := s.newMeasureTier(ctx)
		defer tier.done()
		cfg.Store = tier
		ev, err := system.EvaluateCtx(ctx, prog, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return errResult(&apiError{Status: http.StatusGatewayTimeout, Err: "evaluation deadline exceeded"})
			}
			return errResult(&apiError{Status: http.StatusUnprocessableEntity, Err: err.Error()})
		}
		return &result{status: http.StatusOK,
			body: jsonBody(buildPartitionResponse(ev, req.Verify, key))}
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) *result {
	var req SweepRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return errResult(aerr)
	}
	prog, pairs, key, aerr := req.canonicalize(s.cfg.MaxSourceBytes)
	if aerr != nil {
		return errResult(aerr)
	}
	return s.resultFor(r, key, func(ctx context.Context) *result {
		return s.computeSweep(ctx, prog, &req, pairs, key)
	})
}

// computeSweep measures the application's initial design with the
// single-pass stack-distance profiler teed into its one ISS run, which
// prices the whole geometry grid and counts the reference stream without
// storing it. The measurement record goes through a measure tier under
// the key a partition miss on the program looks up
// (system.StoreMeasurement); the sweep never reads the tiers, since its
// body needs the reference stream's counts. A program the measurement
// rejects gets /v1/partition's error text.
func (s *Server) computeSweep(ctx context.Context, prog *behav.Program, req *SweepRequest,
	pairs [][2]cache.Config, key string) *result {
	ir, err := cdfg.Build(prog)
	if err != nil {
		return errResult(&apiError{Status: http.StatusUnprocessableEntity, Err: err.Error()})
	}
	tier := s.newMeasureTier(ctx)
	defer tier.done()
	cfg := system.Config{MaxInstrs: s.cfg.MaxInstrs, Store: tier}
	ev, base, reps, st, err := system.MeasureAndSweepCtx(ctx, ir, cfg, pairs)
	if ctx.Err() != nil {
		return errResult(&apiError{Status: http.StatusGatewayTimeout, Err: "sweep deadline exceeded"})
	}
	if err != nil {
		return errResult(&apiError{Status: http.StatusUnprocessableEntity, Err: err.Error()})
	}
	system.StoreMeasurement(ir, cfg, ev, base)
	name := req.App
	if name == "" {
		name = ir.Name
	}
	return &result{status: http.StatusOK,
		body: jsonBody(buildSweepResponse(name, req.ISweep, st, pairs, reps, key))}
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) *result {
	var resp AppsResponse
	for _, a := range apps.All() {
		resp.Apps = append(resp.Apps, AppBody{
			Name:            a.Name,
			Description:     a.Description,
			PaperSavings:    a.PaperSavings,
			PaperTimeChange: a.PaperTimeChange,
			SourceBytes:     len(a.Source),
		})
	}
	return &result{status: http.StatusOK, body: jsonBody(&resp)}
}
