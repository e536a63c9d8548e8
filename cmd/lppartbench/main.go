// Command lppartbench is a closed-loop load generator for lppartd: N
// concurrent clients round-robin the six built-in Table 1 applications
// against POST /v1/partition as fast as the server answers, then report
// sustained QPS, latency percentiles and the result-cache hit rate as
// JSON (BENCH_serve.json).
//
// Usage:
//
//	lppartbench                          # spawn an in-process server and bench it
//	lppartbench -url=http://host:8095    # bench a running lppartd
//	lppartbench -clients=16 -duration=10s -out=BENCH_serve.json
//
// By default the benchmark spawns its own server (4 workers, 1024 cache
// entries) on an ephemeral local port, so one command reproduces the
// repo's BENCH_serve.json numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"lppart/internal/serve"
	"lppart/internal/serve/client"
)

// benchConfig echoes the benchmark's configuration into the report, so
// a BENCH_serve.json is self-describing: the numbers can be reproduced
// without recovering the command line that produced them.
type benchConfig struct {
	Clients      int     `json:"clients"`
	DurationS    float64 `json:"duration_s"`
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue_depth"`
	CacheEntries int     `json:"cache_entries"`
}

// benchApps is the benchmarked application set: the six Table 1 rows.
var benchApps = []string{"3d", "MPG", "ckey", "digs", "engine", "trick"}

// result is the benchmark report written to -out.
type result struct {
	URL        string      `json:"url"`
	Config     benchConfig `json:"config"`
	Clients    int         `json:"clients"`
	DurationS  float64     `json:"duration_s"`
	Requests   int64       `json:"requests"`
	Errors     int64       `json:"errors"`
	Retries    int64       `json:"retries"`
	QPS        float64     `json:"qps"`
	CacheHits  int64       `json:"cache_hits"`
	HitRate    float64     `json:"hit_rate"`
	P50Ms      float64     `json:"p50_ms"`
	P90Ms      float64     `json:"p90_ms"`
	P99Ms      float64     `json:"p99_ms"`
	MaxMs      float64     `json:"max_ms"`
	WarmupS    float64     `json:"warmup_s"`
	SpawnedSrv bool        `json:"spawned_server"`
}

func main() {
	var (
		url      = flag.String("url", "", "lppartd base URL (empty: spawn an in-process server)")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		duration = flag.Duration("duration", 10*time.Second, "measured run length")
		out      = flag.String("out", "BENCH_serve.json", "report path (- for stdout only)")
		workers  = flag.Int("workers", 4, "spawned server: worker pool size")
		queue    = flag.Int("queue", 64, "spawned server: admission queue depth")
		entries  = flag.Int("cache", 1024, "spawned server: result cache entries")
	)
	flag.Parse()

	res := result{Clients: *clients, SpawnedSrv: *url == ""}
	res.Config = benchConfig{
		Clients:      *clients,
		DurationS:    duration.Seconds(),
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *entries,
	}
	if *url == "" {
		// Self-hosted: a real HTTP server on an ephemeral loopback port,
		// so the benchmark exercises the same network stack as production.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		srv := serve.New(serve.Config{Workers: *workers, QueueDepth: *queue, CacheEntries: *entries})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln) //lint:err Serve returns ErrServerClosed on the deferred Close
		defer hs.Close()
		*url = "http://" + ln.Addr().String()
	}
	res.URL = *url

	apps := benchApps
	ctx := context.Background()
	c := client.New(*url)
	if !c.Healthy(ctx) {
		fatal(fmt.Errorf("server at %s is not healthy", *url))
	}

	// Warm-up: prime the result cache with every benchmarked key once, so
	// the measured window reports steady-state (warm-cache) behavior.
	warmStart := time.Now()
	for _, app := range apps {
		if _, err := c.Partition(ctx, &serve.PartitionRequest{App: app}); err != nil {
			fatal(fmt.Errorf("warm-up %s: %w", app, err))
		}
	}
	res.WarmupS = time.Since(warmStart).Seconds()

	// Closed loop: each client fires its next request the moment the
	// previous one answers, round-robining the apps from a per-client
	// offset so the fleet mixes keys instead of marching in phase.
	type clientStats struct {
		requests, errors, hits, retries int64
		latencies                       []time.Duration
	}
	stats := make([]clientStats, *clients)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := client.New(*url)
			st := &stats[i]
			for n := i; time.Now().Before(deadline); n++ {
				app := apps[n%len(apps)]
				t0 := time.Now()
				r, err := cl.Partition(ctx, &serve.PartitionRequest{App: app})
				st.latencies = append(st.latencies, time.Since(t0))
				st.requests++
				if err != nil {
					st.errors++
					continue
				}
				st.retries += int64(r.Attempts - 1)
				if r.CacheHit {
					st.hits++
				}
			}
		}(i)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < *duration {
		elapsed = *duration
	}

	var all []time.Duration
	for i := range stats {
		res.Requests += stats[i].requests
		res.Errors += stats[i].errors
		res.CacheHits += stats[i].hits
		res.Retries += stats[i].retries
		all = append(all, stats[i].latencies...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	res.DurationS = elapsed.Seconds()
	res.QPS = float64(res.Requests) / elapsed.Seconds()
	if res.Requests > 0 {
		res.HitRate = float64(res.CacheHits) / float64(res.Requests)
	}
	res.P50Ms = quantileMs(all, 0.50)
	res.P90Ms = quantileMs(all, 0.90)
	res.P99Ms = quantileMs(all, 0.99)
	if len(all) > 0 {
		res.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}

	b, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	os.Stdout.Write(b) //lint:err stdout write, nothing to recover on failure
	if *out != "-" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if res.Errors > 0 {
		fatal(fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests))
	}
}

// quantileMs returns the nearest-rank q-quantile of a sorted latency
// slice in milliseconds: the smallest sample with at least q·n samples at
// or below it, index ceil(q·n)−1.
func quantileMs(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q·n from rounding up past an exact rank (0.07·100
	// is 7.000000000000001 in float64).
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	i = min(max(i, 0), n-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lppartbench: %v\n", err)
	os.Exit(1)
}
