package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops > 0 replaces the time limit with a fixed op count per phase
	// and sets up once (smoke runs).
	ops int
}

// setups is how many times a run sets its workload up; setup_s is the
// median, so a few slow set-ups do not move it.
func (o options) setups() int {
	if o.ops > 0 {
		return 1
	}
	return 7
}

// metric is one reported number. N > 0 marks a percentile and carries
// its sample count; Missing marks a percentile with fewer than
// minBeyond samples beyond it, which fails the run.
type metric struct {
	Name    string
	Value   float64
	N       int
	Missing bool
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	digest            string
	problems          []string // failed output checks
	metrics           []metric
	// info are printed for the reader but are no metric of the ledger:
	// the op timings, which do not repeat closely enough across runs to
	// gate a change.
	info []metric
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// checkError marks an op whose output failed a check, as opposed to an
// op that failed to run.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, a ...any) error {
	return &checkError{fmt.Sprintf(format, a...)}
}

// note counts one op's error into r: a failed check makes the run
// incorrect, any other error counts the op as failed.
func (r *result) note(err error) {
	var ce *checkError
	switch {
	case err == nil:
	case errors.As(err, &ce):
		if len(r.problems) < 20 {
			r.problems = append(r.problems, ce.msg)
		}
	default:
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
	}
}

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// e2eMetrics are reported by every untraced run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// layerMetrics are reported by every traced run, in this order. A layer
// the workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.layer_coverage_pct", "%", "higher"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"gen.inflight_max", "count", "lower"},
	{"behav.parse_ms", "ms", "lower"},
	{"cdfg.build_ms", "ms", "lower"},
	{"interp.profile_ms", "ms", "lower"},
	{"interp.steps", "count", "lower"},
	{"interp.msteps_per_s", "Msteps/s", "higher"},
	{"codegen.compile_ms", "ms", "lower"},
	{"iss.run_ms", "ms", "lower"},
	{"iss.instrs", "count", "lower"},
	{"iss.minstr_per_s", "Minstr/s", "higher"},
	{"cache.i_miss_ratio", "ratio", "lower"},
	{"cache.d_miss_ratio", "ratio", "lower"},
	{"system.measure_ms", "ms", "lower"},
	{"partition.greedy_ms", "ms", "lower"},
	{"partition.memo_binds", "count", "lower"},
	{"partition.memo_hit_ratio", "ratio", "higher"},
	{"system.cosim_ms", "ms", "lower"},
	{"trace.record_ms", "ms", "lower"},
	{"trace.accesses", "count", "lower"},
	{"trace.bytes_per_access", "B", "lower"},
	{"trace.sweep_ms", "ms", "lower"},
	{"trace.passes", "count", "lower"},
	{"memostore.replay_ms", "ms", "lower"},
	{"memostore.bytes", "B", "lower"},
	{"dse.search_ms", "ms", "lower"},
	{"dse.configs", "count", "lower"},
	{"dse.pruned", "count", "higher"},
	{"dse.prune_ratio", "ratio", "higher"},
	{"dse.pair_evals", "count", "lower"},
	{"dse.memo_adds", "count", "lower"},
	{"dse.points", "count", "higher"},
	{"explore.geom_speedup", "x", "higher"},
	{"milp.solve_ms", "ms", "lower"},
	{"milp.nodes", "count", "lower"},
	{"milp.expanded", "count", "lower"},
	{"milp.pruned", "count", "higher"},
	{"milp.check_ms", "ms", "lower"},
	{"serve.hit_ms_p50", "ms", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.miss_ms_p90", "ms", "lower"},
	{"serve.compute_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"jobs.queue_ms_p50", "ms", "lower"},
	{"jobs.run_ms_p50", "ms", "lower"},
	{"jobs.polls_per_job", "count", "lower"},
}

// closedWorkload is a workload driven by one caller that issues its
// next op only when the previous one has returned.
type closedWorkload interface {
	// op runs op i. sp is nil outside the traced phase; root is the
	// op's span there.
	op(ctx context.Context, i int, sp *spanLog, root int) error
	// attribute runs after traced op i, outside its span: calls made
	// only to split the op's time across layers.
	attribute(ctx context.Context, i int, sp *spanLog) error
	// layers derives per-layer metrics from the traced phase's span self
	// times and the counters its ops collected. covered is the per-op
	// time, in ms, of the directly timed layer calls; layer times derived
	// as a remainder of others do not count.
	layers(self map[string]float64, ops int) (ms []metric, covered float64)
	// digest is the SHA-256 over the warm-up op's output bytes.
	digest() string
	close()
}

// setupFunc builds a workload from its seed, including one untimed
// warm-up op whose output the digest covers.
type setupFunc func(ctx context.Context, seed int64) (closedWorkload, error)

// usage is a snapshot of the process's resource counters.
type usage struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //lint:err cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
	}
}

// heapBytes is the live heap now.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //lint:err cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

// phase is what one measured phase observed.
type phase struct {
	latMs     []float64
	ok        int
	from, to  usage
	heapPeak  uint64
	lateMs    []float64 // open loop only: send time minus due time
	inflight  int       // open loop only: most requests in flight at once
	elapsedS  float64
	spans     *spanLog
	tracedOps int
}

// e2e records the end-to-end metrics of an untraced phase in res, and
// its timings as information: on a shared host they do not repeat within
// the 10% an end-to-end bound allows, so the ledger carries them only
// from traced runs, as per-layer metrics without a bound.
func (p *phase) e2e(res *result, setupS []float64) {
	ops := float64(max(len(p.latMs), 1))
	res.metrics = []metric{
		{Name: "setup_s", Value: median(setupS)},
		{Name: "alloc_mb_per_op", Value: float64(p.to.allocBytes-p.from.allocBytes) / 1e6 / ops},
	}
	res.info = append(p.timings(), percentile("op_ms_p90", p.latMs, 0.90))
}

// timings are the phase's op latency median, its rate of ops completed
// OK (for an open loop, within the latency limit) and its process CPU
// time per op.
func (p *phase) timings() []metric {
	return []metric{
		percentile("op_ms_p50", p.latMs, 0.50),
		{Name: "ops_per_s", Value: float64(p.ok) / p.elapsedS},
		{Name: "cpu_ms_per_op", Value: float64(p.to.cpu-p.from.cpu) / 1e6 / float64(max(len(p.latMs), 1))},
	}
}

// common computes the per-layer metrics every workload shares: the
// untraced phase's timings, tracing overhead (traced against untraced op
// p50), span coverage, GC work and heap peak. coveredMs is the per-op
// time of the directly timed layer calls.
func common(plain, traced *phase, coveredMs float64) []metric {
	opMs := 0.0
	for _, v := range traced.latMs {
		opMs += v
	}
	m := map[string]float64{
		"bench.trace_overhead_pct": 100 * (median(traced.latMs)/median(plain.latMs) - 1),
		"go.gc_cycles_per_op":      float64(plain.to.gcCycles-plain.from.gcCycles) / float64(max(1, len(plain.latMs))),
		"go.heap_peak_mb":          float64(max(plain.heapPeak, traced.heapPeak)) / 1e6,
		"go.peak_rss_mb":           peakRSSMB(),
		"gen.inflight_max":         float64(max(1, plain.inflight)),
	}
	if opMs > 0 {
		m["bench.layer_coverage_pct"] = 100 * coveredMs * float64(traced.tracedOps) / opMs
	}
	out := append(values(m), plain.timings()...)
	if len(plain.lateMs) > 0 {
		out = append(out, percentile("gen.late_ms_p99", plain.lateMs, 0.99))
	}
	return out
}

// values turns plain per-layer values into metrics.
func values(vals map[string]float64) []metric {
	out := make([]metric, 0, len(vals))
	for k, v := range vals {
		out = append(out, metric{Name: k, Value: v})
	}
	return out
}

// layerList orders per-layer metrics as layerMetrics declares them,
// reporting 0 for layers the workload bypasses.
func layerList(ms []metric) []metric {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, d := range layerMetrics {
		m, ok := byName[d.name]
		if !ok {
			m = metric{Name: d.name}
		}
		out = append(out, m)
	}
	return out
}

// setUp sets a workload up n times, closing all but the last, and
// returns the last with the seconds each set-up took.
func setUp[W any](n int, setup func() (W, error), closeW func(W)) (W, []float64, error) {
	var w W
	var secs []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			closeW(w)
		}
		t := time.Now()
		var err error
		if w, err = setup(); err != nil {
			return w, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return w, secs, nil
}

// runClosed drives a closed-loop workload: set up (several times, for a
// steady setup_s), then one untraced phase, or in a traced run an
// untraced and a traced phase of half the time each.
func runClosed(ctx context.Context, o options, setup setupFunc) (*result, error) {
	w, setupS, err := setUp(o.setups(), func() (closedWorkload, error) { return setup(ctx, o.seed) },
		closedWorkload.close)
	if err != nil {
		return nil, err
	}
	defer w.close()

	res := &result{digest: w.digest()}
	next := 0
	run := func(seconds float64, sp *spanLog) *phase {
		p := &phase{spans: sp}
		p.from = snapshot()
		deadline := p.from.at.Add(time.Duration(seconds * float64(time.Second)))
		for n := 0; ; n++ {
			if o.ops > 0 && n >= o.ops || o.ops == 0 && !time.Now().Before(deadline) {
				break
			}
			i := next
			next++
			t := time.Now()
			root := sp.begin("op", i, -1)
			err := w.op(ctx, i, sp, root)
			sp.end(root)
			p.latMs = append(p.latMs, float64(time.Since(t))/1e6)
			res.attempted++
			res.note(err)
			if err == nil {
				p.ok++
			}
			if sp != nil {
				p.tracedOps++
				res.note(w.attribute(ctx, i, sp))
			}
			p.heapPeak = max(p.heapPeak, heapBytes())
		}
		p.to = snapshot()
		p.elapsedS = p.to.at.Sub(p.from.at).Seconds()
		return p
	}

	if !o.trace {
		run(o.seconds, nil).e2e(res, setupS)
		return res, nil
	}
	plain := run(o.seconds/2, nil)
	traced := run(o.seconds/2, newSpanLog())
	ms, covered := w.layers(traced.spans.selfMs(), traced.tracedOps)
	res.metrics = layerList(append(ms, common(plain, traced, covered)...))
	return res, writeSpans(o, traced.spans)
}

// writeSpans stores a traced phase's spans under the build directory.
func writeSpans(o options, sp *spanLog) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return sp.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}
