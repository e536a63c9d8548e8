package report

import (
	"fmt"
	"strings"

	"lppart/internal/milp"
)

// Exact renders one application's exact optima: per explored cache
// geometry, the provably minimal objective next to the Fig. 1 greedy
// round's, the optimality gap between them, and the certified
// configuration. Objectives are normalized per geometry (each against
// its own E_0/T_0), so the OF columns compare within a row only.
func Exact(r *milp.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Exact optima: %s — %d geometries\n\n", r.App, len(r.Optima))
	fmt.Fprintf(&sb, "%-10s %-10s %10s %10s %7s %8s %7s  %s\n",
		"i-cache", "d-cache", "greedy OF", "exact OF", "gap%", "nodes", "proven", "optimal configuration")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	for _, o := range r.Optima {
		gOF, _, _ := o.Inst.Greedy()
		gap := 0.0
		if gOF != 0 {
			gap = 100 * (gOF - o.OF) / gOF
		}
		fmt.Fprintf(&sb, "%-10s %-10s %10.6f %10.6f %7.3f %8d %7v  %s\n",
			geomCell(o.Geom[0]), geomCell(o.Geom[1]),
			gOF, o.OF, gap, o.Stats.Nodes, o.Stats.Proven, pickCell(o.Picks))
	}
	return sb.String()
}

// GapRow is one application's greedy-vs-exact accounting on the
// reference geometry, plus the frontier the exact optima were checked
// against.
type GapRow struct {
	App       string
	GreedyOF  float64     // Fig. 1 greedy objective, reference geometry
	ExactOF   float64     // proven minimum, reference geometry
	Picks     []milp.Pick // the exact optimum's configuration
	Certified bool        // bound-trail certificate re-checked
	Points    int         // global Pareto frontier size
	Configs   int64       // configurations the exact-bound search evaluated
	Pruned    int64       // subtrees/options the exact-bound search cut
	Verdict   string      // where the greedy Table 1 point ended up
}

// Gap renders the per-application optimality-gap table: the Fig. 1
// greedy objective against the certified exact minimum on the reference
// geometry, the exact-bound Pareto search's counters, and the fate of
// the greedy Table 1 point against the frontier.
func Gap(rows []GapRow) string {
	var sb strings.Builder
	sb.WriteString("Optimality gaps: Fig. 1 greedy vs exact oracle (reference geometry)\n\n")
	fmt.Fprintf(&sb, "%-7s %10s %10s %7s %5s %8s %8s %7s  %-24s %s\n",
		"app", "greedy OF", "exact OF", "gap%", "cert", "points", "configs", "pruned", "exact configuration", "Table 1 point")
	sb.WriteString(strings.Repeat("-", 130) + "\n")
	for _, r := range rows {
		gap := 0.0
		if r.GreedyOF != 0 {
			gap = 100 * (r.GreedyOF - r.ExactOF) / r.GreedyOF
		}
		cert := "no"
		if r.Certified {
			cert = "yes"
		}
		fmt.Fprintf(&sb, "%-7s %10.6f %10.6f %7.3f %5s %8d %8d %7d  %-24s %s\n",
			r.App, r.GreedyOF, r.ExactOF, gap, cert,
			r.Points, r.Configs, r.Pruned, pickCell(r.Picks), r.Verdict)
	}
	return sb.String()
}
