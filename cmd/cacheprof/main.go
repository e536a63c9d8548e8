// Command cacheprof is the trace-driven cache profiler of the paper's
// design flow (Fig. 5's "Trace Tool" + "Cache Profiler", after WARTS):
// it profiles the memory reference stream of one application run online,
// during the run's one ISS execution, and evaluates a sweep of cache
// geometries against it so the designer can size the cache cores for the
// chosen partition without re-simulating. The single-pass stack-distance
// profiler covers the whole sets x ways grid at one line size, and the
// stream is counted but never stored.
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
	"lppart/internal/trace"
)

func main() {
	var (
		appName = flag.String("app", "digs", "built-in application")
		isweep  = flag.Bool("isweep", false, "sweep the instruction cache instead of the data cache")
		sets    = flag.String("sets", "16,32,64,128,256,512,1024", "set counts to sweep (powers of two)")
		assoc   = flag.String("assoc", "1,2", "associativities to sweep")
		line    = flag.Int("line", 4, "line size in words (power of two)")
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
	pairs, err := trace.Grid(setList, assocList, *line, *isweep)
	if err != nil {
		fatal(err)
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
	// The profiler rides along the initial design's measurement run.
	_, _, reps, st, err := system.MeasureAndSweepCtx(context.Background(), ir, system.Config{}, pairs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("application %s: trace with %d fetches, %d reads, %d writes (%d bytes compact)\n\n",
		a.Name, st.Fetches, st.Reads, st.Writes, st.Bytes)
	for _, rep := range reps {
		fmt.Println(" ", rep)
	}
	passes := trace.Passes(pairs)
	fmt.Printf("\nsingle-pass profiler: %d stack pass(es) served %d geometries — a naive\n",
		passes, len(pairs))
	fmt.Printf("replay sweep costs %d passes (%d trace-access visits saved).\n",
		len(pairs), int64(len(pairs)-passes)*st.Len())
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
