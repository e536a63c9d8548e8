package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"lppart/internal/dse"
	"lppart/internal/milp"
)

// ExactOptimum is one geometry's proven minimum on the wire, paired
// with the Fig. 1 greedy objective it is measured against. The bound
// trail itself stays server-side: the worker re-checks every
// certificate with milp.Check before finishing the job, and Certified
// in the enclosing ExactBody reports that the replay succeeded.
type ExactOptimum struct {
	milp.Optimum
	GreedyOF float64 `json:"greedy_of"`
	// GapPct is 100*(greedy-exact)/greedy: how far the paper's greedy
	// round lands from the provable minimum on this geometry.
	GapPct float64 `json:"gap_pct"`
}

// ExactBody is a finished exact solve on the wire.
type ExactBody struct {
	App            string         `json:"app"`
	Optima         []ExactOptimum `json:"optima"`
	Certified      bool           `json:"certified"`
	CacheSignature string         `json:"request_key"`
}

// solveExact is the exact kind: it measures the application once,
// solves every geometry to its proven minimum with a certificate, and
// replays each certificate with milp.Check before returning, so a
// "done" job carries only re-proven optima.
func solveExact(ctx context.Context, in *jobInput, progress func(done, total int)) ([]byte, error) {
	prep, err := dse.Prepare(ctx, in.ir, in.cfg)
	if err != nil {
		return nil, err
	}
	res, err := milp.Solve(ctx, prep, milp.Config{
		MaxHW:       in.cfg.MaxHW,
		Workers:     1,
		Certificate: true,
		OnProgress:  progress,
	})
	if err != nil {
		return nil, err
	}
	optima := make([]ExactOptimum, 0, len(res.Optima))
	for _, o := range res.Optima {
		if err := milp.Check(o.Inst, o.Cert); err != nil {
			return nil, fmt.Errorf("certificate replay failed: %w", err)
		}
		gOF, _, _ := o.Inst.Greedy()
		gap := 0.0
		if gOF != 0 {
			gap = 100 * (gOF - o.OF) / gOF
		}
		wire := *o
		wire.Cert = nil // proof replayed above; the trail stays server-side
		wire.Inst = nil
		optima = append(optima, ExactOptimum{Optimum: wire, GreedyOF: gOF, GapPct: gap})
	}
	body, err := json.Marshal(&ExactBody{
		App:            res.App,
		Optima:         optima,
		Certified:      true,
		CacheSignature: in.key,
	})
	if err != nil {
		return nil, fmt.Errorf("exact result not marshalable: %w", err)
	}
	return body, nil
}
