package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/milp"
	"lppart/internal/serve"
	"lppart/internal/system"
	"lppart/internal/tech"
	"lppart/internal/trace"
)

// jobPoll is how often the poller reads the job table. A round takes a
// few hundred ms, so a 10 ms tick moves its median little, and the
// poller takes little CPU from the jobs.
const jobPoll = 10 * time.Millisecond

// jobKinds are submitted for every application.
var jobKinds = [2]string{"explore", "exact"}

// serveJobs drives the asynchronous job endpoints of an in-process
// server with its default worker pool. Op i is round i+1 (round 0 is
// the warm-up): one goroutine posts an explore and an exact job for each
// of the six applications with one fresh F, so every job is a cold
// computation, while another reads the job table every jobPoll until
// all twelve are done.
type serveJobs struct {
	srv  *server
	apps []apps.App
	irs  []*cdfg.Program // per application, for attribution
	rng  *rand.Rand
	fs   []float64 // each round's F, drawn as rounds start
	want []byte    // the warm-up round's results, concatenated

	// Untraced ops' job timings.
	queueMs, runMs []float64
	polls          int

	// Counters summed over the traced phase's ops.
	accesses, traceBytes                         int64
	passes                                       int
	configs, pruned, pairEvals, memoAdds, points int64
	nodes, expanded, milpPruned                  int64
}

func setupServeJobs(ctx context.Context, seed int64) (closedWorkload, error) {
	srv, err := startServer(0)
	if err != nil {
		return nil, err
	}
	w := &serveJobs{srv: srv, apps: apps.All(), rng: rand.New(rand.NewSource(seed))}
	for _, a := range w.apps {
		ir, err := a.Build()
		if err != nil {
			srv.close()
			return nil, err
		}
		w.irs = append(w.irs, ir)
	}
	outs, err := w.round(0, -1, nil, -1)
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	for _, out := range outs {
		w.want = append(append(w.want, out...), '\n')
	}
	return w, nil
}

// f returns round r's F, drawing rounds in order.
func (w *serveJobs) f(r int) float64 {
	for len(w.fs) <= r {
		w.fs = append(w.fs, 0.5+1.5*w.rng.Float64())
	}
	return w.fs[r]
}

// job is one submitted job being polled.
type job struct {
	app, kind             string
	body                  serve.JobBody
	posted, started, done time.Time
}

// submit posts every application's explore and exact job with F f, in
// (application, kind) order, and sends each to posted as its POST
// returns. It closes posted when it is done and leaves its error, if
// any, in *errp.
func (w *serveJobs) submit(f float64, posted chan<- *job, errp *error) {
	defer close(posted)
	for _, a := range w.apps {
		req, err := json.Marshal(serve.ExploreRequest{App: a.Name, F: f})
		if err != nil {
			*errp = err
			return
		}
		for _, kind := range jobKinds {
			status, _, out, err := w.srv.do("POST", "/v1/"+kind, req)
			if err != nil {
				*errp = err
				return
			}
			if status != 202 {
				*errp = fmt.Errorf("%s %s: POST status %d: %s", kind, a.Name, status, out)
				return
			}
			j := &job{app: a.Name, kind: kind, posted: time.Now()}
			if err := json.Unmarshal(out, &j.body); err != nil {
				*errp = fmt.Errorf("%s %s: %w", kind, a.Name, err)
				return
			}
			posted <- j
		}
	}
}

// round runs round r as op i and returns its twelve result bodies in
// (application, kind) order. One goroutine submits the jobs while this
// one polls, so a job is seen starting and finishing even while later
// POSTs wait for a CPU behind the running jobs.
func (w *serveJobs) round(r, i int, sp *spanLog, root int) ([][]byte, error) {
	t0 := time.Now()
	posted := make(chan *job, len(jobKinds)*len(w.apps))
	var submitErr error
	go w.submit(w.f(r), posted, &submitErr)
	fail := func(err error) ([][]byte, error) {
		for range posted { // wait for the submitter to stop
		}
		return nil, err
	}
	var jobs []*job
	polls, open := 0, 0
	for submitting := true; submitting || open > 0; {
		time.Sleep(jobPoll)
	take:
		for submitting {
			select {
			case j, ok := <-posted:
				if !ok {
					submitting = false
					sp.record("jobs.submit", i, root, t0, time.Now())
					break take
				}
				jobs = append(jobs, j)
				open++
			default:
				break take
			}
		}
		if open == 0 {
			continue
		}
		// One GET /v1/jobs per tick reads every job's state.
		status, _, out, err := w.srv.do("GET", "/v1/jobs", nil)
		if err != nil {
			return fail(err)
		}
		now := time.Now()
		if status != 200 {
			return fail(fmt.Errorf("GET /v1/jobs: status %d: %s", status, out))
		}
		var list serve.JobsResponse
		if err := json.Unmarshal(out, &list); err != nil {
			return fail(fmt.Errorf("GET /v1/jobs: %w", err))
		}
		states := make(map[string]serve.JobSummary, len(list.Jobs))
		for _, js := range list.Jobs {
			states[js.JobID] = js
		}
		for _, j := range jobs {
			if !j.done.IsZero() {
				continue
			}
			polls++
			js, ok := states[j.body.JobID]
			if !ok {
				return fail(fmt.Errorf("%s %s: job %s missing from /v1/jobs", j.kind, j.app, j.body.JobID))
			}
			switch js.State {
			case "failed":
				return fail(fmt.Errorf("%s %s: job failed: %s", j.kind, j.app, js.Error))
			case "queued":
				continue
			}
			if j.started.IsZero() {
				j.started = now
			}
			if js.State != "done" {
				continue
			}
			j.done = now
			open--
			// DELETE returns the finished job with its result and drops it
			// from the table, so the listing stays one round long.
			status, _, out, err := w.srv.do("DELETE", j.body.Poll, nil)
			if err != nil {
				return fail(err)
			}
			if status != 200 {
				return fail(fmt.Errorf("%s %s: result status %d: %s", j.kind, j.app, status, out))
			}
			if err := json.Unmarshal(out, &j.body); err != nil {
				return fail(fmt.Errorf("%s %s: %w", j.kind, j.app, err))
			}
		}
	}
	if submitErr != nil {
		return nil, submitErr
	}

	outs := make([][]byte, len(jobs))
	for k, j := range jobs {
		var err error
		if j.kind == "exact" {
			outs[k], err = j.body.Exact, w.checkExact(i, j.app, j.body.Exact, sp != nil)
		} else {
			outs[k], err = j.body.Frontier, w.checkFrontier(i, j.app, j.body.Frontier, sp != nil)
		}
		if err != nil {
			return nil, err
		}
		if sp == nil && i >= 0 {
			w.queueMs = append(w.queueMs, float64(j.started.Sub(j.posted))/1e6)
			w.runMs = append(w.runMs, float64(j.done.Sub(j.started))/1e6)
		}
	}
	if sp == nil && i >= 0 {
		w.polls += polls
	}
	return outs, nil
}

// ofSlack is the relative tolerance of the exact-versus-greedy check:
// the greedy objective comes from partition's price arithmetic and the
// exact one from milp's frame arithmetic, which can round the same
// configuration one ulp apart.
const ofSlack = 1e-12

// checkExact requires a certified body whose optima are no worse than
// the greedy objective on every geometry.
func (w *serveJobs) checkExact(i int, app string, b []byte, count bool) error {
	var eb serve.ExactBody
	if err := json.Unmarshal(b, &eb); err != nil {
		return fmt.Errorf("exact %s: %w", app, err)
	}
	if !eb.Certified || len(eb.Optima) == 0 {
		return checkf("serve-jobs op %d: exact %s: not certified", i, app)
	}
	for _, o := range eb.Optima {
		if o.OF > o.GreedyOF*(1+ofSlack) {
			return checkf("serve-jobs op %d: exact %s: OF %v above greedy %v", i, app, o.OF, o.GreedyOF)
		}
		if count {
			w.nodes += o.Stats.Nodes
			w.expanded += o.Stats.Expanded
			w.milpPruned += o.Stats.Pruned
		}
	}
	return nil
}

// checkFrontier requires a non-empty frontier.
func (w *serveJobs) checkFrontier(i int, app string, b []byte, count bool) error {
	var fb serve.FrontierBody
	if err := json.Unmarshal(b, &fb); err != nil {
		return fmt.Errorf("explore %s: %w", app, err)
	}
	if len(fb.Points) == 0 {
		return checkf("serve-jobs op %d: explore %s: empty frontier", i, app)
	}
	if count {
		w.configs += fb.Stats.Configs
		w.pruned += fb.Stats.Pruned
		w.pairEvals += fb.Stats.PairEvals
		w.memoAdds += fb.Stats.MemoAdds
		w.points += int64(len(fb.Points))
	}
	return nil
}

func (w *serveJobs) op(_ context.Context, i int, sp *spanLog, root int) error {
	_, err := w.round(i+1, i, sp, root)
	return err
}

// attribute repeats, in process, the stages the round's jobs ran on the
// server: per application the measurement, the measurement with the
// reference trace recorded and the single-pass geometry sweep (which
// both of its jobs run, so they count twice), then the Pareto search
// and the exact solve with its certificate check on a fresh
// preparation.
func (w *serveJobs) attribute(ctx context.Context, i int, sp *spanLog) error {
	pairs := [][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}
	for _, g := range dse.DefaultGeometries() {
		g[1].WriteBack = true
		pairs = append(pairs, g)
	}
	for _, ir := range w.irs {
		cfg := dse.Config{Workers: 1}
		cfg.Sys.MaxInstrs = 50_000_000 // the server's default budget
		cfg.Sys.Part.F = w.f(i + 1)
		var tr *trace.Trace
		err := sp.run("attr.system.measure", i, -1, func() error {
			_, _, err := system.MeasureInitialCtx(ctx, ir, cfg.Sys)
			return err
		})
		if err == nil {
			err = sp.run("attr.system.measure_record", i, -1, func() (err error) {
				_, _, tr, err = system.MeasureAndRecordCtx(ctx, ir, cfg.Sys)
				return err
			})
		}
		if err == nil {
			err = sp.run("attr.trace.sweep", i, -1, func() error {
				_, err := tr.SweepParallel(pairs, tech.Default(), 1)
				return err
			})
		}
		if err != nil {
			return err
		}
		w.accesses += 2 * tr.Len()
		w.traceBytes += 2 * tr.Bytes()
		w.passes += 2 * trace.Passes(pairs)
		p, err := dse.Prepare(ctx, ir, cfg)
		if err != nil {
			return err
		}
		err = sp.run("attr.dse.search", i, -1, func() error {
			_, err := dse.ExplorePrep(ctx, p, cfg)
			return err
		})
		if err != nil {
			return err
		}
		var res *milp.Result
		err = sp.run("attr.milp.solve", i, -1, func() (err error) {
			res, err = milp.Solve(ctx, p, milp.Config{Workers: 1, Certificate: true})
			return err
		})
		if err != nil {
			return err
		}
		err = sp.run("attr.milp.check", i, -1, func() error {
			for _, o := range res.Optima {
				if err := milp.Check(o.Inst, o.Cert); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveJobs) layers(self map[string]float64, ops int) ([]metric, float64) {
	n := float64(max(ops, 1))
	per := func(name string) float64 { return self[name] / n }
	measure := 2 * per("attr.system.measure")
	record := max(2*per("attr.system.measure_record")-measure, 0)
	v := map[string]float64{
		"system.measure_ms":      measure,
		"trace.record_ms":        record,
		"trace.accesses":         float64(w.accesses) / n,
		"trace.bytes_per_access": ratio(w.traceBytes, w.accesses),
		"trace.sweep_ms":         2 * per("attr.trace.sweep"),
		"trace.passes":           float64(w.passes) / n,
		"dse.search_ms":          per("attr.dse.search"),
		"dse.configs":            float64(w.configs) / n,
		"dse.pruned":             float64(w.pruned) / n,
		"dse.prune_ratio":        ratio(w.pruned, w.pruned+w.configs),
		"dse.pair_evals":         float64(w.pairEvals) / n,
		"dse.memo_adds":          float64(w.memoAdds) / n,
		"dse.points":             float64(w.points) / n,
		"milp.solve_ms":          per("attr.milp.solve"),
		"milp.nodes":             float64(w.nodes) / n,
		"milp.expanded":          float64(w.expanded) / n,
		"milp.pruned":            float64(w.milpPruned) / n,
		"milp.check_ms":          per("attr.milp.check"),
		"jobs.polls_per_job":     float64(w.polls) / float64(max(len(w.runMs), 1)),
	}
	ms := append(values(v),
		percentile("jobs.queue_ms_p50", w.queueMs, 0.5),
		percentile("jobs.run_ms_p50", w.runMs, 0.5))
	// The server runs jobs on every CPU at once, so the jobs' layer time,
	// replayed one call at a time, is set against all CPUs' op time. The
	// POSTs overlap the running jobs and are not counted.
	covered := (2*per("attr.system.measure_record") + v["trace.sweep_ms"] +
		v["dse.search_ms"] + v["milp.solve_ms"] + v["milp.check_ms"]) / benchCPUs
	return ms, covered
}

func (w *serveJobs) digest() string { return fmt.Sprintf("%x", sha256.Sum256(w.want)) }

func (w *serveJobs) close() { w.srv.close() }
