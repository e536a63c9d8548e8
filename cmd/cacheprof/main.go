// Command cacheprof is the trace-driven cache profiler of the paper's
// design flow (Fig. 5's "Trace Tool" + "Cache Profiler", after WARTS):
// it records the memory reference stream of one application run, then
// evaluates a sweep of cache geometries against it so the designer can
// size the cache cores for the chosen partition without re-simulating.
// The sweep runs the single-pass stack-distance profiler: ONE pass over
// the trace per distinct line size covers the whole sets x ways grid.
//
// Usage:
//
//	cacheprof -app=digs
//	cacheprof -app=MPG -isweep              # sweep the i-cache instead
//	cacheprof -sets=64,256 -assoc=1,2,4     # custom geometry grid
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/system"
	"lppart/internal/tech"
	"lppart/internal/trace"
)

func main() {
	var (
		appName = flag.String("app", "digs", "built-in application")
		isweep  = flag.Bool("isweep", false, "sweep the instruction cache instead of the data cache")
		sets    = flag.String("sets", "16,32,64,128,256,512,1024", "set counts to sweep (powers of two)")
		assoc   = flag.String("assoc", "1,2", "associativities to sweep")
		line    = flag.Int("line", 4, "line size in words (power of two)")
		jobs    = flag.Int("j", 0, "concurrent profiler passes (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()

	setList, err := parseGridList("sets", *sets, true)
	if err != nil {
		fatal(err)
	}
	assocList, err := parseGridList("assoc", *assoc, false)
	if err != nil {
		fatal(err)
	}
	if *line <= 0 || *line&(*line-1) != 0 {
		fatal(fmt.Errorf("-line: %d is not a positive power of two", *line))
	}

	// Validate the whole grid up front: a typo'd flag should name the
	// offending geometry, not surface as an error from deep inside the
	// sweep.
	var pairs [][2]cache.Config
	for _, s := range setList {
		for _, a := range assocList {
			swept := cache.Config{Sets: s, Assoc: a, LineWords: *line}
			icfg, dcfg := cache.DefaultICache(), cache.DefaultDCache()
			if *isweep {
				icfg = swept
			} else {
				swept.WriteBack = true
				dcfg = swept
			}
			if err := swept.Validate(); err != nil {
				fatal(fmt.Errorf("geometry sets=%d assoc=%d line=%d: %w", s, a, *line, err))
			}
			pairs = append(pairs, [2]cache.Config{icfg, dcfg})
		}
	}
	if len(pairs) == 0 {
		fatal(fmt.Errorf("empty geometry grid (-sets=%q -assoc=%q)", *sets, *assoc))
	}

	a, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	src, err := a.Parse()
	if err != nil {
		fatal(err)
	}
	ir, err := cdfg.Build(src)
	if err != nil {
		fatal(err)
	}
	tr, err := system.RecordTraceCtx(context.Background(), ir, system.Config{})
	if err != nil {
		fatal(err)
	}
	f, r, w := tr.Counts()
	fmt.Printf("application %s: trace with %d fetches, %d reads, %d writes (%d bytes compact)\n\n",
		a.Name, f, r, w, tr.Bytes())

	lib := tech.Default()
	// One stack pass per distinct line size covers the whole grid; the
	// passes fan out across the worker pool.
	reps, err := tr.SweepParallel(pairs, lib, *jobs)
	if err != nil {
		fatal(err)
	}
	for _, rep := range reps {
		fmt.Println(" ", rep)
	}
	passes := trace.Passes(pairs)
	fmt.Printf("\nsingle-pass profiler: %d stack pass(es) served %d geometries — a naive\n",
		passes, len(pairs))
	fmt.Printf("replay sweep costs %d passes (%d trace-access visits saved).\n",
		len(pairs), int64(len(pairs)-passes)*tr.Len())
	fmt.Println("\nPick the knee: beyond it the array energy of a bigger cache")
	fmt.Println("outgrows the memory energy it saves (paper §1 footnote 2).")
}

// parseGridList parses a comma-separated geometry flag. Set counts must
// be powers of two (the set index is a bit field); associativities only
// need to be positive and within cache.MaxAssoc.
func parseGridList(name, s string, powerOfTwo bool) ([]int, error) {
	var out []int
	for _, fld := range strings.Split(s, ",") {
		fld = strings.TrimSpace(fld)
		if fld == "" {
			continue
		}
		v, err := strconv.Atoi(fld)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer", name, fld)
		}
		if powerOfTwo && (v <= 0 || v&(v-1) != 0) {
			return nil, fmt.Errorf("-%s: %d is not a positive power of two", name, v)
		}
		if !powerOfTwo && (v <= 0 || v > cache.MaxAssoc) {
			return nil, fmt.Errorf("-%s: %d out of range [1, %d]", name, v, cache.MaxAssoc)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty geometry grid", name)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cacheprof:", err)
	os.Exit(1)
}
