// Command appsim compiles an application for the µP core and runs it
// all-software through the instruction-set simulator with the cache,
// memory and bus cores attached, reporting the per-core energy breakdown,
// cycle count, instruction mix and cache statistics of the initial
// (non-partitioned) design.
//
// Usage:
//
//	appsim -app=MPG
//	appsim -src=prog.bv -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/interp"
	"lppart/internal/system"
	"lppart/internal/tech"
	"lppart/internal/units"
)

func main() {
	var (
		appName = flag.String("app", "", "built-in application (3d, MPG, ckey, digs, engine, trick)")
		srcPath = flag.String("src", "", "behavioral source file")
		verbose = flag.Bool("v", false, "also print the instruction-class mix and interpreter cross-check")
	)
	flag.Parse()

	var (
		src *behav.Program
		err error
	)
	switch {
	case *appName != "":
		a, aerr := apps.ByName(*appName)
		if aerr != nil {
			fatal(aerr)
		}
		src, err = a.Parse()
	case *srcPath != "":
		data, rerr := os.ReadFile(*srcPath)
		if rerr != nil {
			fatal(rerr)
		}
		src, err = behav.Parse(*srcPath, string(data))
	default:
		fmt.Fprintln(os.Stderr, "appsim: need -app or -src")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	ir, err := cdfg.Build(src)
	if err != nil {
		fatal(err)
	}
	// The measurement front half of the flow: the initial design's one
	// ISS run, without the partitioning search that would follow it.
	ev, _, err := system.MeasureInitialCtx(context.Background(), ir, system.Config{})
	if err != nil {
		fatal(err)
	}
	d := ev.Initial
	fmt.Printf("application %s: all-software (initial) design\n\n", ev.App)
	fmt.Printf("  i-cache   %12v   (%d accesses, hit rate %.4f)\n", d.EICache, d.IStats.Accesses, d.IStats.HitRate())
	fmt.Printf("  d-cache   %12v   (%d accesses, hit rate %.4f)\n", d.EDCache, d.DStats.Accesses, d.DStats.HitRate())
	fmt.Printf("  memory    %12v\n", d.EMem)
	fmt.Printf("  bus       %12v\n", d.EBus)
	fmt.Printf("  uP core   %12v\n", d.EMuP)
	fmt.Printf("  total     %12v\n\n", d.Total())
	fmt.Printf("  execution %v cycles (%v at 25 MHz), %d instructions\n",
		units.Cycles(d.TotalCycles()),
		units.Cycles(d.TotalCycles()).Duration(40*units.NanoSecond),
		d.ISS.Instrs)
	lib := tech.Default()
	fmt.Printf("  U_uP = %.4f\n", d.ISS.Utilization(&lib.Micro))

	if *verbose {
		fmt.Println("\ninstruction mix:")
		for c := tech.InstrClass(0); c < tech.NumInstrClasses; c++ {
			if d.ISS.PerClass[c] == 0 {
				continue
			}
			fmt.Printf("  %-8v %12d (%5.1f%%)\n", c, d.ISS.PerClass[c],
				100*float64(d.ISS.PerClass[c])/float64(d.ISS.Instrs))
		}
		ref, rerr := interp.Run(ir, interp.Options{})
		if rerr != nil {
			fatal(rerr)
		}
		fmt.Printf("\ninterpreter cross-check: %d IR ops, return value %d\n", ref.Steps, ref.Ret)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appsim:", err)
	os.Exit(1)
}
