package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/partition"
	"lppart/internal/serve/jobs"
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

// ExploreRequest is the body of both job endpoints: the Fig. 1 input
// tuple plus the design-space axes (cluster-count bound, cache-geometry
// grid). POST /v1/explore searches it for a Pareto frontier and POST
// /v1/exact solves it to the certified exact optimum per geometry. Both
// are asynchronous — the response carries a job ID to poll — and never
// deduplicate onto each other's jobs.
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
	if len(specs) > maxGeometries {
		return nil, fmt.Errorf("geometries: %d entries exceed the limit of %d", len(specs), maxGeometries)
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

// canonicalize validates the request and resolves it into one job's
// input. kind versions the key space: the explore and exact endpoints
// accept the same body but must never deduplicate onto each other's
// jobs.
func (req *ExploreRequest) canonicalize(kind string, maxSourceBytes int) (*jobInput, *apiError) {
	prog, srcSHA, aerr := parseSource(req.App, req.Source, maxSourceBytes)
	if aerr != nil {
		return nil, aerr
	}
	if req.F < 0 {
		return nil, badRequest("f must be >= 0")
	}
	if req.MaxClusters < 0 || req.GEQBudget < 0 || req.MaxHW < 0 {
		return nil, badRequest("max_clusters, geq_budget and max_hw must be >= 0")
	}
	sets, err := resolveResourceSets(req.ResourceSets)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	geoms, err := resolveGeometries(req.Geometries)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	pc := partition.Config{F: req.F, MaxClusters: req.MaxClusters, GEQBudget: req.GEQBudget, ResourceSets: sets}
	pc.Defaults()
	c := canonExplore{
		Kind:        kind,
		App:         req.App,
		SourceSHA:   srcSHA,
		F:           pc.F,
		MaxClusters: pc.MaxClusters,
		GEQBudget:   pc.GEQBudget,
		MaxHW:       cmp.Or(req.MaxHW, dse.DefaultMaxHW),
		Sets:        canonSets(pc.ResourceSets),
		Verify:      req.Verify,
	}
	for _, g := range geoms {
		c.Geometries = append(c.Geometries, [6]int{
			g[0].Sets, g[0].Assoc, g[0].LineWords,
			g[1].Sets, g[1].Assoc, g[1].LineWords,
		})
	}
	in := &jobInput{prog: prog, key: hashCanon(c)}
	in.cfg = dse.Config{Geometries: geoms, MaxHW: req.MaxHW, Workers: 1}
	in.cfg.Sys.Part.F = req.F
	in.cfg.Sys.Part.MaxClusters = req.MaxClusters
	in.cfg.Sys.Part.GEQBudget = req.GEQBudget
	in.cfg.Sys.Part.ResourceSets = sets
	in.cfg.Sys.Part.Verify = req.Verify
	return in, nil
}

// jobInput carries one job's resolved input from the handler to the
// worker goroutine, which adds the built CDFG, the server's simulation
// budget and its measurement tier to cfg before the kind's search runs.
type jobInput struct {
	prog *behav.Program
	ir   *cdfg.Program
	cfg  dse.Config // shared by both kinds; OnProgress unset
	key  string
}

// jobKind is one async job endpoint. The kinds share the request body,
// dedupe, admission, lifecycle and job body; only run differs. name
// gives the route (/v1/<name>), the key space (<name>/v1) and the
// JobBody result field.
type jobKind struct {
	name        string
	deadlineMsg string // the job's error when its deadline cuts run short
	// run searches one job's input and returns the finished result body,
	// reporting finished/scheduled geometries through progress.
	run func(ctx context.Context, in *jobInput, progress func(done, total int)) ([]byte, error)
}

// jobKinds is every async job endpoint; New registers POST, GET and
// DELETE routes for each.
var jobKinds = []*jobKind{
	{name: "explore", deadlineMsg: "exploration deadline exceeded", run: exploreFrontier},
	{name: "exact", deadlineMsg: "exact solve deadline exceeded", run: solveExact},
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

// exploreFrontier is the explore kind: the branch-and-bound Pareto
// frontier over every geometry.
func exploreFrontier(ctx context.Context, in *jobInput, progress func(done, total int)) ([]byte, error) {
	cfg := in.cfg
	cfg.OnProgress = progress
	f, err := dse.Explore(ctx, in.ir, cfg)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(&FrontierBody{
		App:            f.App,
		Points:         f.Points,
		Stats:          f.Stats,
		Verified:       cfg.Sys.Part.Verify,
		CacheSignature: in.key,
	})
	if err != nil {
		return nil, fmt.Errorf("frontier not marshalable: %w", err)
	}
	return body, nil
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

// jobResult renders one snapshot as a job body; the snapshot's kind
// picks the poll path and the result field.
func jobResult(status int, snap jobs.Snapshot, existing bool) *result {
	b := &JobBody{
		JobID:    snap.ID,
		State:    snap.State.String(),
		Done:     snap.Done,
		Total:    snap.Total,
		Poll:     "/v1/" + snap.Kind + "/" + snap.ID,
		Error:    snap.Error,
		Existing: existing,
	}
	if snap.Kind == "exact" {
		b.Exact = snap.Result
	} else {
		b.Frontier = snap.Result
	}
	return &result{status: status, body: jsonBody(b)}
}

// submitJob is POST /v1/<kind>: it creates the job (or finds the
// identical one) and starts its worker.
func (s *Server) submitJob(k *jobKind) func(http.ResponseWriter, *http.Request) *result {
	return func(w http.ResponseWriter, r *http.Request) *result {
		var req ExploreRequest
		if aerr := s.decodeBody(w, r, &req); aerr != nil {
			return errResult(aerr)
		}
		in, aerr := req.canonicalize(k.name+"/v1", s.cfg.MaxSourceBytes)
		if aerr != nil {
			return errResult(aerr)
		}
		// The job is server-owned from birth: bounded by the configured
		// timeout, cancelled by Abort or DELETE, independent of this request.
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
		snap, created, err := s.jobs.Create(k.name, in.key, cancel)
		switch {
		case err != nil:
			cancel()
			return errResult(&apiError{Status: http.StatusTooManyRequests, Err: "job table full"})
		case !created:
			cancel()
			return jobResult(http.StatusOK, snap, true)
		}
		go s.runJob(ctx, cancel, k, snap.ID, in)
		return jobResult(http.StatusAccepted, snap, false)
	}
}

// jobStatus is GET and DELETE /v1/<kind>/{id}. A job is reachable only
// through its own kind's routes: any other ID is an unknown job, and a
// DELETE on the wrong route leaves the job untouched.
func (s *Server) jobStatus(k *jobKind) func(http.ResponseWriter, *http.Request) *result {
	return func(_ http.ResponseWriter, r *http.Request) *result {
		id := r.PathValue("id")
		snap, ok := s.jobs.Get(id)
		if ok && snap.Kind == k.name && r.Method == http.MethodDelete {
			snap, ok = s.jobs.Delete(id)
		}
		if !ok || snap.Kind != k.name {
			return errResult(&apiError{Status: http.StatusNotFound, Err: "unknown job"})
		}
		return jobResult(http.StatusOK, snap, false)
	}
}

// runJob is a job's worker goroutine: it queues for an admission slot
// like every synchronous evaluation, then runs the kind's search
// serially inside that one slot (request-level parallelism belongs to
// the worker pool, not to the inside of one slot).
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, k *jobKind, id string, in *jobInput) {
	defer cancel()
	if aerr := s.adm.acquire(ctx); aerr != nil {
		s.jobs.Fail(id, aerr.Err)
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
	in.ir = ir
	in.cfg.Sys.MaxInstrs = s.cfg.MaxInstrs
	// F and the other partitioning knobs do not enter the measurement,
	// so every job on the same program replays it from the server's
	// tiers after the first, waiting for it while it runs (verify jobs
	// still measure live).
	tier := s.newMeasureTier(ctx)
	defer tier.done()
	in.cfg.Store = tier
	body, err := k.run(ctx, in, func(done, total int) { s.jobs.Progress(id, done, total) })
	switch {
	case err == nil:
		s.jobs.Finish(id, body)
	case ctx.Err() != nil:
		s.jobs.Fail(id, k.deadlineMsg)
	default:
		s.jobs.Fail(id, err.Error())
	}
}
