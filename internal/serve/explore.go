package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/serve/jobs"
	"lppart/internal/tech"
)

// GeometrySpec is one explored (i-cache, d-cache) pair in an
// ExploreRequest. Zero-valued fields inherit the corresponding default
// geometry field; data caches are always write-back.
type GeometrySpec struct {
	ISets      int `json:"isets,omitempty"`
	IAssoc     int `json:"iassoc,omitempty"`
	ILineWords int `json:"iline_words,omitempty"`
	DSets      int `json:"dsets,omitempty"`
	DAssoc     int `json:"dassoc,omitempty"`
	DLineWords int `json:"dline_words,omitempty"`
}

// ExploreRequest is the body of POST /v1/explore: the Fig. 1 input tuple
// plus the design-space axes (cluster-count bound, cache-geometry grid).
// The endpoint is asynchronous — the response carries a job ID to poll.
type ExploreRequest struct {
	App          string            `json:"app,omitempty"`
	Source       string            `json:"source,omitempty"`
	F            float64           `json:"f,omitempty"`
	MaxClusters  int               `json:"max_clusters,omitempty"`
	GEQBudget    int               `json:"geq_budget,omitempty"`
	ResourceSets []ResourceSetSpec `json:"resource_sets,omitempty"`
	// MaxHW bounds how many clusters one configuration may move to
	// hardware (0: the dse default).
	MaxHW      int            `json:"max_hw,omitempty"`
	Geometries []GeometrySpec `json:"geometries,omitempty"`
	Verify     bool           `json:"verify,omitempty"`
}

// canonExplore is the fully-defaulted explore request behind the job
// dedupe key; two requests resolving to the same tuple share one job.
type canonExplore struct {
	Kind        string    `json:"kind"` // "explore/v1"
	App         string    `json:"app"`
	SourceSHA   string    `json:"source_sha"`
	F           float64   `json:"f"`
	MaxClusters int       `json:"max_clusters"`
	GEQBudget   int       `json:"geq_budget"`
	MaxHW       int       `json:"max_hw"`
	Sets        []canonRS `json:"sets"`
	Geometries  [][6]int  `json:"geometries"`
	Verify      bool      `json:"verify"`
}

// resolveGeometries turns the request's specs into validated cache pairs.
// nil specs select the dse default grid.
func resolveGeometries(specs []GeometrySpec) ([][2]cache.Config, error) {
	if len(specs) == 0 {
		return dse.DefaultGeometries(), nil
	}
	out := make([][2]cache.Config, 0, len(specs))
	for i, spec := range specs {
		icfg, dcfg := cache.DefaultICache(), cache.DefaultDCache()
		if spec.ISets != 0 {
			icfg.Sets = spec.ISets
		}
		if spec.IAssoc != 0 {
			icfg.Assoc = spec.IAssoc
		}
		if spec.ILineWords != 0 {
			icfg.LineWords = spec.ILineWords
		}
		if spec.DSets != 0 {
			dcfg.Sets = spec.DSets
		}
		if spec.DAssoc != 0 {
			dcfg.Assoc = spec.DAssoc
		}
		if spec.DLineWords != 0 {
			dcfg.LineWords = spec.DLineWords
		}
		dcfg.WriteBack = true
		if err := icfg.Validate(); err != nil {
			return nil, fmt.Errorf("geometries[%d]: i-cache: %w", i, err)
		}
		if err := dcfg.Validate(); err != nil {
			return nil, fmt.Errorf("geometries[%d]: d-cache: %w", i, err)
		}
		out = append(out, [2]cache.Config{icfg, dcfg})
	}
	return out, nil
}

// canonicalize validates the explore request and returns the resolved
// inputs plus the job dedupe key. kind versions the key space: the
// explore and exact endpoints accept the same body but must never
// deduplicate onto each other's jobs.
func (req *ExploreRequest) canonicalize(kind string, maxSourceBytes int) (*exploreInputs, string, *apiError) {
	prog, srcSHA, aerr := parseSource(req.App, req.Source, maxSourceBytes)
	if aerr != nil {
		return nil, "", aerr
	}
	if req.F < 0 {
		return nil, "", badRequest("f must be >= 0")
	}
	if req.MaxClusters < 0 || req.GEQBudget < 0 || req.MaxHW < 0 {
		return nil, "", badRequest("max_clusters, geq_budget and max_hw must be >= 0")
	}
	sets, err := resolveResourceSets(req.ResourceSets)
	if err != nil {
		return nil, "", badRequest(err.Error())
	}
	geoms, err := resolveGeometries(req.Geometries)
	if err != nil {
		return nil, "", badRequest(err.Error())
	}
	c := canonExplore{
		Kind:        kind,
		App:         req.App,
		SourceSHA:   srcSHA,
		F:           req.F,
		MaxClusters: req.MaxClusters,
		GEQBudget:   req.GEQBudget,
		MaxHW:       req.MaxHW,
		Verify:      req.Verify,
	}
	if c.F == 0 {
		c.F = 1.0
	}
	if c.MaxClusters == 0 {
		c.MaxClusters = 5
	}
	if c.GEQBudget == 0 {
		c.GEQBudget = 16000
	}
	if c.MaxHW == 0 {
		c.MaxHW = 2
	}
	canonSets := sets
	if canonSets == nil {
		canonSets = tech.DefaultResourceSets()
	}
	for _, rs := range canonSets {
		c.Sets = append(c.Sets, canonRS{Name: rs.Name, Max: rs.Max})
	}
	for _, g := range geoms {
		c.Geometries = append(c.Geometries, [6]int{
			g[0].Sets, g[0].Assoc, g[0].LineWords,
			g[1].Sets, g[1].Assoc, g[1].LineWords,
		})
	}
	return &exploreInputs{prog: prog, sets: sets, geoms: geoms}, hashCanon(c), nil
}

// exploreInputs carries one explore job's resolved inputs from the
// handler to the worker goroutine.
type exploreInputs struct {
	prog  *behav.Program
	sets  []tech.ResourceSet
	geoms [][2]cache.Config
}

// FrontierBody is a finished exploration on the wire: the Pareto points
// plus the search's deterministic work counters.
type FrontierBody struct {
	App            string      `json:"app"`
	Points         []dse.Point `json:"points"`
	Stats          dse.Stats   `json:"stats"`
	Verified       bool        `json:"verified"`
	CacheSignature string      `json:"request_key"`
}

// JobBody is an async job's state on the wire: the POST, GET and
// DELETE responses of both job endpoints render it, so pollers parse
// one shape.
type JobBody struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Done/Total count finished vs. scheduled geometries.
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Poll  string `json:"poll"`
	Error string `json:"error,omitempty"`
	// Existing marks a POST deduplicated onto an earlier identical job.
	Existing bool `json:"existing,omitempty"`
	// Frontier is a finished exploration (a FrontierBody), present once
	// an explore job's State is "done".
	Frontier json.RawMessage `json:"frontier,omitempty"`
	// Exact is a finished exact solve (an ExactBody), present once an
	// exact job's State is "done".
	Exact json.RawMessage `json:"exact,omitempty"`
}

// jobBody renders one snapshot for the named job endpoint ("explore"
// or "exact"), which picks the poll path and the result field.
func jobBody(endpoint string, snap jobs.Snapshot, existing bool) *JobBody {
	b := &JobBody{
		JobID:    snap.ID,
		State:    snap.State.String(),
		Done:     snap.Done,
		Total:    snap.Total,
		Poll:     "/v1/" + endpoint + "/" + snap.ID,
		Error:    snap.Error,
		Existing: existing,
	}
	switch endpoint {
	case "exact":
		b.Exact = snap.Result
	default:
		b.Frontier = snap.Result
	}
	return b
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //lint:nondet latency metric only; never in a response body
	var req ExploreRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		writeResult(w, errResult(aerr))
		s.observe("explore", "bad_request", start)
		return
	}
	in, key, aerr := req.canonicalize("explore/v1", s.cfg.MaxSourceBytes)
	if aerr != nil {
		writeResult(w, errResult(aerr))
		s.observe("explore", "bad_request", start)
		return
	}
	// The job is server-owned from birth: bounded by the configured
	// timeout, cancelled by Abort or DELETE, independent of this request.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
	snap, created, err := s.jobs.Create(key, cancel)
	if err != nil {
		cancel()
		res := errResult(&apiError{Status: http.StatusTooManyRequests, Err: "job table full"})
		writeResult(w, res)
		s.observe("explore", "shed_queue", start)
		return
	}
	if !created {
		cancel()
		res := &flightResult{status: http.StatusOK, body: jsonBody(jobBody("explore", snap, true))}
		writeResult(w, res)
		s.observe("explore", "ok", start)
		return
	}
	go s.runExplore(ctx, cancel, snap.ID, &req, in, key)
	res := &flightResult{status: http.StatusAccepted, body: jsonBody(jobBody("explore", snap, false))}
	writeResult(w, res)
	s.observe("explore", "ok", start)
}

// runExplore is the job's worker goroutine: it queues for an admission
// slot like every synchronous evaluation, then runs the exploration
// serially inside that one slot (request-level parallelism belongs to
// the worker pool, not to the inside of one slot).
func (s *Server) runExplore(ctx context.Context, cancel context.CancelFunc, id string,
	req *ExploreRequest, in *exploreInputs, key string) {
	defer cancel()
	if aerr := s.adm.acquire(ctx); aerr != nil {
		switch aerr {
		case errQueueFull:
			s.jobs.Fail(id, "queue full")
		case errDraining:
			s.jobs.Fail(id, "draining")
		default:
			s.jobs.Fail(id, "deadline exceeded while queued")
		}
		return
	}
	defer s.adm.release()
	if !s.jobs.Start(id) {
		return // canceled while queued
	}
	ir, err := cdfg.Build(in.prog)
	if err != nil {
		s.jobs.Fail(id, err.Error())
		return
	}
	cfg := dse.Config{
		Geometries: in.geoms,
		MaxHW:      req.MaxHW,
		Workers:    1,
		OnProgress: func(done, total int) { s.jobs.Progress(id, done, total) },
	}
	cfg.Sys.MaxInstrs = s.cfg.MaxInstrs
	cfg.Sys.Part.F = req.F
	cfg.Sys.Part.MaxClusters = req.MaxClusters
	cfg.Sys.Part.GEQBudget = req.GEQBudget
	cfg.Sys.Part.ResourceSets = in.sets
	cfg.Sys.Part.Verify = req.Verify
	f, err := dse.Explore(ctx, ir, cfg)
	if err != nil {
		if ctx.Err() != nil {
			s.jobs.Fail(id, "exploration deadline exceeded")
			return
		}
		s.jobs.Fail(id, err.Error())
		return
	}
	body, merr := json.Marshal(&FrontierBody{
		App:            f.App,
		Points:         f.Points,
		Stats:          f.Stats,
		Verified:       req.Verify,
		CacheSignature: key,
	})
	if merr != nil {
		s.jobs.Fail(id, "frontier not marshalable: "+merr.Error())
		return
	}
	s.jobs.Finish(id, body)
}

func (s *Server) handleExploreGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //lint:nondet latency metric only; never in a response body
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		res := errResult(&apiError{Status: http.StatusNotFound, Err: "unknown job"})
		writeResult(w, res)
		s.observe("explore", outcomeOf(res), start)
		return
	}
	res := &flightResult{status: http.StatusOK, body: jsonBody(jobBody("explore", snap, false))}
	writeResult(w, res)
	s.observe("explore", "ok", start)
}

func (s *Server) handleExploreDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //lint:nondet latency metric only; never in a response body
	snap, ok := s.jobs.Delete(r.PathValue("id"))
	if !ok {
		res := errResult(&apiError{Status: http.StatusNotFound, Err: "unknown job"})
		writeResult(w, res)
		s.observe("explore", outcomeOf(res), start)
		return
	}
	res := &flightResult{status: http.StatusOK, body: jsonBody(jobBody("explore", snap, false))}
	writeResult(w, res)
	s.observe("explore", "ok", start)
}
