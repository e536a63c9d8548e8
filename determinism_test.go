// Determinism regression test for the parallel evaluation engine: any
// worker count of the whole-application fan-out produces byte-identical
// Table 1 rows, because results merge in input order and each evaluation
// runs serially inside its worker.
package lppart

import (
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/explore"
	"lppart/internal/report"
	"lppart/internal/system"
)

// TestEvaluateAllMatchesSerial covers the whole-app fan-out cmd/report
// makes: the six evaluations coming back from the shared worker pool
// (explore.Map over system.Evaluate) must render the same Table 1 as six
// independent serial runs, in the same order.
func TestEvaluateAllMatchesSerial(t *testing.T) {
	list := apps.All()
	serial := make([]*system.Evaluation, 0, len(list))
	srcs := make([]*behav.Program, 0, len(list))
	for _, a := range list {
		src, err := a.Parse()
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
		ev, err := system.Evaluate(src, system.Config{})
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, ev)
	}
	parallel, err := explore.Map(4, srcs, func(_ int, src *behav.Program) (*system.Evaluation, error) {
		return system.Evaluate(src, system.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.Table1(parallel), report.Table1(serial); got != want {
		t.Errorf("fanned-out Table 1 differs from serial evaluations:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want, got)
	}
}
