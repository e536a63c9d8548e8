// Command report regenerates the paper's experimental artifacts: Table 1
// (per-core energy and execution time of initial vs. partitioned designs),
// Figure 6 (savings / time-change chart), the hardware-overhead summary
// and the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	report -table1            # Table 1 for all six applications
//	report -fig6              # Figure 6
//	report -hw                # hardware overhead per application
//	report -summary           # one-line summary per application
//	report -app=digs -trail   # decision trail of one application
//	report -frontier          # branch-and-bound Pareto frontier per app
//	report -gap               # greedy-vs-exact optimality gaps (milp oracle)
//	report -ablation=F        # ablation A1: objective factor sweep
//	report -ablation=preselect|rs|weighted|gated|cache
//	report -ablation=cores    # extension E1: multi-core partitioning
//	report -ablation=future   # extension E2: control-dominated application
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lppart/internal/apps"
	"lppart/internal/dse"
	"lppart/internal/explore"
	"lppart/internal/report"
	"lppart/internal/system"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "render Table 1")
		fig6     = flag.Bool("fig6", false, "render Figure 6")
		hw       = flag.Bool("hw", false, "render hardware overhead")
		summary  = flag.Bool("summary", false, "render one-line summary")
		trail    = flag.Bool("trail", false, "print the partitioning decision trail")
		appName  = flag.String("app", "", "restrict to one application")
		frontier = flag.Bool("frontier", false, "render the design-space Pareto frontier per application")
		gap      = flag.Bool("gap", false, "render the greedy-vs-exact optimality-gap table and assert the published frontier verdicts")
		ablation = flag.String("ablation", "", "run an ablation: F, preselect, rs, weighted, gated, cache, cores (E1), future (E2)")
		jobs     = flag.Int("j", 0, "concurrent application evaluations (0 = one per CPU, 1 = serial)")
		verify   = flag.Bool("verify", false, "run the pipeline-stage IR verifiers and the decision audit alongside every evaluation")
	)
	flag.Parse()
	if !*table1 && !*fig6 && !*hw && !*summary && !*trail && !*frontier && !*gap && *ablation == "" {
		*table1 = true
		*fig6 = true
		*hw = true
	}

	list := apps.All()
	if *appName != "" {
		a, err := apps.ByName(*appName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		list = []apps.App{a}
	}

	if *ablation != "" {
		if err := runAblation(*ablation, list, *jobs, *verify); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *frontier {
		if err := runFrontier(list, *jobs, *verify); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *gap {
		if err := runGap(list, *jobs, *verify); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Fan the applications out on the exploration pool; evaluations come
	// back in input order, so rows and trails print identically at any -j.
	evals, err := explore.Map(*jobs, list, func(_ int, a apps.App) (*system.Evaluation, error) {
		cfg := system.Config{}
		cfg.Part.Verify = *verify
		ev, err := evaluate(a, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		return ev, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *trail {
		for _, ev := range evals {
			fmt.Printf("== %s decision trail ==\n%s\n", ev.App, ev.Decision.Trail())
		}
	}
	if *table1 {
		fmt.Println(report.Table1(evals))
	}
	if *fig6 {
		fmt.Println(report.Fig6(evals))
	}
	if *hw {
		fmt.Println(report.Hardware(evals))
	}
	if *summary {
		fmt.Println(report.Summary(evals))
	}
}

func evaluate(a apps.App, cfg system.Config) (*system.Evaluation, error) {
	src, err := a.Parse()
	if err != nil {
		return nil, err
	}
	return system.Evaluate(src, cfg)
}

// runFrontier renders the branch-and-bound Pareto frontier per
// application and answers the paper question: does the greedy Fig. 1
// choice (the Table 1 point) lie on the frontier, or is it dominated
// once cache geometries and multi-cluster configurations compete?
func runFrontier(list []apps.App, jobs int, verify bool) error {
	for _, a := range list {
		ir, err := a.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		cfg := dse.Config{Workers: jobs}
		cfg.Sys.Part.Verify = verify
		f, err := dse.Explore(context.Background(), ir, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		fmt.Print(report.Pareto(f))

		// Locate the greedy choice among the frontier points.
		ev, err := evaluate(a, system.Config{})
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		label, set, desc := "", "", "all software"
		if ch := ev.Decision.Chosen; ch != nil {
			label, set = ch.Region.Label, ch.RS.Name
			desc = label + " on " + set
		}
		switch {
		case report.OnFrontier(f, label, set) >= 0:
			fmt.Printf("Table 1 choice (%s): on the frontier, point %d\n\n",
				desc, report.OnFrontier(f, label, set))
		case report.FindPick(f, label, set) >= 0:
			fmt.Printf("Table 1 choice (%s): dominated on the reference geometry, but survives with adapted caches (point %d)\n\n",
				desc, report.FindPick(f, label, set))
		default:
			fmt.Printf("Table 1 choice (%s): NOT on the frontier\n\n", desc)
		}
	}
	return nil
}
