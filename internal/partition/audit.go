package partition

import (
	"fmt"
	"math"

	"lppart/internal/units"
)

// auditRelTol is the relative tolerance for the objective-function
// recomputation: the audit repeats the same float arithmetic from the
// recorded terms, so anything beyond a few ulps means a term was
// dropped or double-counted, not rounding.
const auditRelTol = 1e-9

// AuditDecision cross-checks a finished Decision against the baseline it
// was judged from: for every first-round evaluation the recorded
// E_R/E_µP/E_rest terms must reproduce the reported objective value
// (Fig. 1 line 13), utilization rates must be genuine rates in [0,1],
// and the selected implementation must actually beat the all-software
// objective. Partition runs it before returning when Config.Verify is
// set; cmd/report and cmd/lppart expose it via -verify.
//
// Only first-round evaluations are audited: the decision trail records
// those against the initial baseline, while later MaxCores rounds are
// judged against shifted baselines the Decision does not retain.
func AuditDecision(dec *Decision, base *Baseline, cfg Config) error {
	cfg.defaults()
	if dec == nil || base == nil {
		return fmt.Errorf("partition: audit: nil decision or baseline")
	}
	if base.TotalEnergy <= 0 || base.TotalCycles <= 0 {
		return fmt.Errorf("partition: audit: baseline has no measured run (E_0=%v, cycles=%d)",
			base.TotalEnergy, base.TotalCycles)
	}
	for _, c := range dec.Candidates {
		for _, ev := range c.Evals {
			if err := auditEval(c, ev, base, cfg); err != nil {
				return err
			}
		}
	}
	if dec.Chosen != nil {
		ev := dec.Chosen.Eval
		if !ev.Eligible {
			return fmt.Errorf("partition: audit: chosen cluster %s is marked ineligible (%s)",
				dec.Chosen.Region.Label, ev.Reason)
		}
		if ev.OF >= dec.BaselineOF {
			return fmt.Errorf("partition: audit: chosen cluster %s has OF %.6f, not below baseline %.6f",
				dec.Chosen.Region.Label, ev.OF, dec.BaselineOF)
		}
		if dec.Chosen.Binding == nil {
			return fmt.Errorf("partition: audit: chosen cluster %s has no binding", dec.Chosen.Region.Label)
		}
	}
	return nil
}

// auditEval re-derives one first-round evaluation's objective value from
// its recorded terms.
func auditEval(c *Candidate, ev *SetEval, base *Baseline, cfg Config) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("partition: audit: cluster %s on %s: %s",
			c.Region.Label, ev.RS.Name, fmt.Sprintf(format, args...))
	}
	if ev.Err != nil {
		if ev.Eligible {
			return fail("eligible despite error: %v", ev.Err)
		}
		return nil
	}
	if ev.UASIC < 0 || ev.UASIC > 1 {
		return fail("U_ASIC %.6f outside [0,1]", ev.UASIC)
	}
	if ev.UMuP < 0 || ev.UMuP > 1 {
		return fail("U_µP %.6f outside [0,1]", ev.UMuP)
	}
	if !ev.Eligible {
		return nil // rejected before the energy terms were computed
	}
	if ev.Binding == nil {
		return fail("eligible evaluation has no binding")
	}
	if ev.GEQ != ev.Binding.GEQTotal() {
		return fail("GEQ %d disagrees with binding total %d", ev.GEQ, ev.Binding.GEQTotal())
	}
	if ev.GEQ > cfg.GEQBudget {
		return fail("eligible despite %d cells over budget %d", ev.GEQ, cfg.GEQBudget)
	}
	if ev.EASIC < 0 || ev.EMuPSaved < 0 {
		return fail("negative energy term (E_ASIC=%v, E_µP=%v)", ev.EASIC, ev.EMuPSaved)
	}
	if ev.EstCycles < 1 {
		return fail("estimated cycles %d below the floor of 1", ev.EstCycles)
	}

	// Recompute OF = F·(E_R + E_µP + E_rest)/E_0 + w_hw·GEQ/budget +
	// w_t·slowdown from the recorded terms, exactly as evaluate() does.
	restAfter := base.RestEnergy - units.Energy(float64(c.MuP.Instrs))*base.ICacheAccessEnergy
	if restAfter < 0 {
		restAfter = 0
	}
	eAfter := float64(base.MuPEnergy-ev.EMuPSaved) + float64(ev.EASIC) + float64(restAfter)
	slowdown := float64(ev.EstCycles)/float64(base.TotalCycles) - 1
	if slowdown < 0 {
		slowdown = 0
	}
	want := cfg.F*eAfter/float64(base.TotalEnergy) +
		HardwareWeight*float64(ev.GEQ)/float64(cfg.GEQBudget) +
		TimeWeight*slowdown
	if !closeRel(ev.OF, want) {
		return fail("objective value %.12g does not reproduce from its terms (want %.12g)", ev.OF, want)
	}
	return nil
}

// closeRel reports whether two floats agree to auditRelTol.
func closeRel(a, b float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= auditRelTol*math.Max(scale, 1)
}
