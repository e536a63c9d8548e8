package report

import (
	"fmt"
	"strings"

	"lppart/internal/cache"
	"lppart/internal/dse"
	"lppart/internal/units"
)

// geomCell formats one cache geometry as sets x assoc x line-words.
func geomCell(c cache.Config) string {
	return fmt.Sprintf("%dx%dx%dw", c.Sets, c.Assoc, c.LineWords)
}

// pickCell formats a configuration's hardware picks
// ("label@set+label@set"), or the all-software marker.
func pickCell(picks []dse.Pick) string {
	if len(picks) == 0 {
		return "(all software)"
	}
	parts := make([]string, 0, len(picks))
	for _, p := range picks {
		parts = append(parts, p.Label+"@"+p.Set)
	}
	return strings.Join(parts, "+")
}

// Pareto renders a design-space frontier: one row per non-dominated
// point with its cache geometry, objectives, ratios against the point's
// own all-software baseline, and the clusters moved to hardware. Only
// worker-count-independent counters are printed, so the rendering is
// byte-identical at any -j.
func Pareto(f *dse.Frontier) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto frontier: %s — %d points (%d configurations evaluated, %d subtrees pruned, %d geometries)\n\n",
		f.App, len(f.Points), f.Stats.Configs, f.Stats.Pruned, f.Stats.Geometries)
	fmt.Fprintf(&sb, "%-3s %-10s %-10s %12s %14s %8s %7s %7s  %s\n",
		"#", "i-cache", "d-cache", "energy", "cycles", "GEQ", "E/E0", "T/T0", "hardware clusters")
	sb.WriteString(strings.Repeat("-", 110) + "\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%-3d %-10s %-10s %12s %14v %8d %7.3f %7.3f  %s\n",
			p.ID, geomCell(p.ICache), geomCell(p.DCache),
			energyCell(p.Energy), units.Cycles(p.Cycles), p.GEQ,
			p.EnergyRatio, p.CycleRatio, pickCell(p.Clusters))
	}
	return sb.String()
}

// matchPick reports whether a point is exactly the greedy Fig. 1 choice:
// the single (label, set) cluster, or all-software when label is empty.
func matchPick(p dse.Point, label, set string) bool {
	if label == "" {
		return len(p.Clusters) == 0
	}
	return len(p.Clusters) == 1 && p.Clusters[0].Label == label && p.Clusters[0].Set == set
}

// OnFrontier locates the greedy Fig. 1 choice — cluster label and
// resource set on the reference geometry — among the frontier points.
// It returns the matching point's ID, or -1 when the greedy pick was
// dominated away (i.e. the Table 1 point does NOT lie on the frontier).
// An empty label asks for the all-software point.
func OnFrontier(f *dse.Frontier, label, set string) int {
	ref := [2]cache.Config{cache.DefaultICache(), cache.DefaultDCache()}
	ref[1].WriteBack = true
	for _, p := range f.Points {
		if p.ICache == ref[0] && p.DCache == ref[1] && matchPick(p, label, set) {
			return p.ID
		}
	}
	return -1
}

// FindPick locates the greedy choice on ANY explored geometry — the
// paper's §1 scenario where the Table 1 partition survives only once the
// caches are adapted to it. Returns the point's ID or -1.
func FindPick(f *dse.Frontier, label, set string) int {
	for _, p := range f.Points {
		if matchPick(p, label, set) {
			return p.ID
		}
	}
	return -1
}
