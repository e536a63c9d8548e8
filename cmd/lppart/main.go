// Command lppart runs the low-power hardware/software partitioning flow on
// an application and prints the full decision trail (clusters, bus-traffic
// estimates, per-resource-set utilization rates, objective values) and the
// resulting Table 1 rows.
//
// Usage:
//
//	lppart -app=digs            # one of the built-in Table 1 applications
//	lppart -src=prog.bv         # a behavioral source file
//	lppart -app=digs -F=2 -maxclusters=3 -geq=16000
//	lppart -app=digs -listing   # also dump the compiled µP program
//	lppart -app=digs -frontier  # branch-and-bound Pareto frontier
//	lppart -app=digs -exact     # certified exact optimum per geometry
//	lppart -app=digs -store=DIR # replay the measurement a previous run stored
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/dse"
	"lppart/internal/memostore"
	"lppart/internal/milp"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/tech"
)

func main() {
	var (
		appName     = flag.String("app", "", "built-in application (3d, MPG, ckey, digs, engine, trick)")
		srcPath     = flag.String("src", "", "behavioral source file")
		factorF     = flag.Float64("F", 1.0, "objective-function energy factor F")
		maxClusters = flag.Int("maxclusters", 5, "pre-selection budget N_max^c")
		geqBudget   = flag.Int("geq", 16000, "hardware budget in cells")
		cores       = flag.Int("cores", 1, "maximum number of ASIC cores (multi-core extension)")
		listing     = flag.Bool("listing", false, "dump the compiled µP program")
		verilog     = flag.Bool("verilog", false, "emit the chosen ASIC core(s) as structural Verilog")
		verify      = flag.Bool("verify", false, "run the pipeline-stage IR verifiers and the decision audit alongside partitioning")
		frontier    = flag.Bool("frontier", false, "explore the design space and print the Pareto frontier instead of the greedy decision")
		exact       = flag.Bool("exact", false, "solve each cache geometry to the certified exact optimum and print the greedy-vs-exact gap")
		maxHW       = flag.Int("maxhw", 0, "frontier/exact mode: max clusters moved to hardware per configuration (0 = default)")
		jflag       = flag.Int("j", 0, "frontier/exact mode: concurrent geometry searches (0 = one per CPU; output is identical at any -j)")
		storeDir    = flag.String("store", "", "persistent measurement memo directory, for every mode (warm runs skip the initial design's measurement; output is byte-identical)")
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
		fmt.Fprintln(os.Stderr, "lppart: need -app or -src")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	cfg := system.Config{}
	cfg.Part.F = *factorF
	cfg.Part.MaxClusters = *maxClusters
	cfg.Part.GEQBudget = *geqBudget
	cfg.Part.MaxCores = *cores
	cfg.Part.Verify = *verify
	var st *memostore.Store
	if *storeDir != "" {
		var serr error
		if st, serr = memostore.Open(*storeDir, memostore.Options{}); serr != nil {
			fatal(serr)
		}
		defer st.Close()
	}

	if *frontier || *exact {
		ir, berr := cdfg.Build(src)
		if berr != nil {
			fatal(berr)
		}
		dcfg := dse.Config{Sys: cfg, MaxHW: *maxHW, Workers: *jflag}
		if st != nil {
			dcfg.Store = st
		}
		if *exact {
			p, perr := dse.Prepare(context.Background(), ir, dcfg)
			if perr != nil {
				fatal(perr)
			}
			res, serr := milp.Solve(context.Background(), p,
				milp.Config{MaxHW: *maxHW, Workers: *jflag, Certificate: true})
			if serr != nil {
				fatal(serr)
			}
			// Replay every proof before printing: a failing certificate
			// must not leave an optimum table on stdout.
			for _, o := range res.Optima {
				if cerr := milp.Check(o.Inst, o.Cert); cerr != nil {
					fatal(fmt.Errorf("certificate for geometry %dx%d sets: %w",
						o.Geom[0].Sets, o.Geom[1].Sets, cerr))
				}
			}
			fmt.Print(report.Exact(res))
			fmt.Printf("\ncertificates: %d/%d optimality proofs re-checked\n",
				len(res.Optima), len(res.Optima))
			return
		}
		f, ferr := dse.Explore(context.Background(), ir, dcfg)
		if ferr != nil {
			fatal(ferr)
		}
		fmt.Print(report.Pareto(f))
		return
	}

	if st != nil {
		cfg.Store = st
	}
	ev, err := system.Evaluate(src, cfg)
	if err != nil {
		fatal(err)
	}

	if *listing {
		ir := ev.IR
		mp, _, cerr := codegen.Compile(ir, codegen.Options{})
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Println(mp.Listing())
	}
	fmt.Printf("== %s: partitioning decision trail ==\n", ev.App)
	fmt.Println(ev.Decision.Trail())
	fmt.Println(report.Table1([]*system.Evaluation{ev}))
	for i, ch := range ev.Decision.Choices {
		b := ch.Binding
		fmt.Printf("core %d (%s on %s): %d instances, %d control steps, clock %v, %d cells (datapath %d + control %d + registers %d)\n",
			i, ch.Region.Label, ch.RS.Name,
			len(b.Instances), b.Steps, b.Clock, b.GEQTotal(),
			b.GEQDatapath, b.GEQController, b.GEQRegisters)
		if *verilog {
			fmt.Println()
			fmt.Println(b.Verilog(fmt.Sprintf("%s_core%d", ev.App, i), tech.Default()))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lppart:", err)
	os.Exit(1)
}
