// Command lppartd serves the partitioning flow over HTTP: POST
// /v1/partition runs the paper's Fig. 1 loop (decision trail + Table 1
// row), POST /v1/batch runs many partitions in one call, POST /v1/sweep
// runs a cache-geometry sweep, GET /v1/apps lists the built-in
// applications, GET /v1/jobs lists the node's async jobs, and /metrics
// exposes Prometheus-text counters, latency histograms and worker-pool
// gauges. Evaluations run on a bounded worker pool behind a bounded
// queue (overload is shed fast with 429), identical in-flight requests
// coalesce on one lease and replay its computation's answer, and
// finished bodies are cached in an LRU keyed by the canonical request
// hash — cached and computed responses are byte-identical. Partition misses and the async POST
// /v1/explore and POST /v1/exact jobs keep each program's F-independent
// measurement (profile, initial ISS run; for jobs also the cache sweep)
// in the same LRU and -store, so only the first request or job on a
// program measures it; requests and jobs that arrive while it measures
// wait for its record. A cold sweep writes the measurement record too,
// for later partition misses and jobs, but never reads it: a sweep
// always runs its one ISS pass, which profiles every geometry.
//
// Usage:
//
//	lppartd                         # serve on :8095 with 4 workers
//	lppartd -addr=:9000 -workers=8 -queue=128 -cache=4096 -timeout=60s
//	lppartd -store=/var/lib/lppartd # persist results and measurements across restarts
//	lppartd -store=/var/lib/lppartd -store-readonly
//	                                # replay another process's store as it was at start
//	lppartd -pprof=localhost:6060   # opt-in profiling listener
//
// On SIGINT/SIGTERM the daemon drains: /readyz flips to 503, new
// evaluations are shed, in-flight work completes (up to -drain), then
// the listener shuts down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"lppart/internal/memostore"
	"lppart/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8095", "listen address")
		workers  = flag.Int("workers", 4, "concurrent evaluation workers")
		queue    = flag.Int("queue", 64, "admission queue depth (beyond this, requests are shed with 429)")
		entries  = flag.Int("cache", 1024, "result cache entries (response bodies and the measurement records of partition misses, jobs and cold sweeps)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight evaluations")
		storeDir = flag.String("store", "", "persistent result store directory (a restarted daemon replays previously-computed 200 bodies and the measurements of partition misses, jobs and cold sweeps byte-identically)")
		roStore  = flag.Bool("store-readonly", false, "open -store read-only: replay the records present at start, persist nothing (several processes share one writer's directory; restart to pick up newer records)")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "lppartd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	scfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *entries,
		Timeout:      *timeout,
	}
	if *storeDir != "" {
		st, err := memostore.Open(*storeDir, memostore.Options{ReadOnly: *roStore})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lppartd: store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		scfg.Store = st
		fmt.Fprintf(os.Stderr, "lppartd: result store %s (%d entries", *storeDir, st.Len())
		if n := st.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr, ", %d corrupt records skipped", n)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	if *pprofOn != "" {
		// Profiling is opt-in and on its own listener, so the profiling
		// surface is never exposed on the service address by accident.
		go func() {
			fmt.Fprintf(os.Stderr, "lppartd: pprof on http://%s/debug/pprof/\n", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintf(os.Stderr, "lppartd: pprof: %v\n", err)
			}
		}()
	}

	srv := serve.New(scfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "lppartd: serving on %s (%d workers, queue %d, cache %d)\n",
		*addr, *workers, *queue, *entries)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "lppartd: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "lppartd: %v: draining (grace %s)\n", sig, *drain)
	}

	// Graceful drain: stop admitting evaluations and advertising
	// readiness, let in-flight work finish, then stop the listener. If
	// the grace period runs out, abort the remaining evaluations.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "lppartd: grace period expired: %v\n", err)
		srv.Abort()
		hs.Close() //lint:err already aborting, exit follows
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "lppartd: drained cleanly")
}
