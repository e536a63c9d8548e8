package partition_test

import (
	"testing"

	"lppart/internal/apps"
	"lppart/internal/codegen"
	"lppart/internal/interp"
	"lppart/internal/iss"
	"lppart/internal/partition"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// TestDeltaMatchesFullAcrossApps differentially tests the evaluator's
// cached term decompositions against single-pass evaluation on all six
// Table 1 applications: for every (cluster, resource set, synergy)
// triple and several shifted baselines, the price of the cached terms
// must be byte-identical — exact float equality on every field — to
// evaluating from scratch.
func TestDeltaMatchesFullAcrossApps(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			profRes, err := interp.Run(ir, interp.Options{CollectProfile: true})
			if err != nil {
				t.Fatal(err)
			}
			mp, _, err := codegen.Compile(ir, codegen.Options{MemWords: 1 << 18, StackWords: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			lib := tech.Default()
			res, err := iss.Run(mp, iss.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base := &partition.Baseline{
				TotalEnergy:        res.Energy * 2,
				MuPEnergy:          res.Energy,
				RestEnergy:         res.Energy,
				TotalCycles:        res.TotalCycles(),
				Regions:            res.Regions,
				Micro:              &lib.Micro,
				ICacheAccessEnergy: 2.5 * units.NanoJoule,
			}
			e, err := partition.NewEvaluator(ir, profRes.Prof, partition.Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, pool := e.Candidates(base)
			if len(pool) == 0 {
				t.Fatal("no pre-selected candidates")
			}

			// Neighbor baselines: the anchor, a greedy-round shift (µP
			// share reduced, cycles changed), and a cache-geometry swap
			// (rest/total energy and i-cache fetch energy changed).
			shift := *base
			shift.MuPEnergy = base.MuPEnergy * 3 / 4
			shift.TotalCycles = base.TotalCycles + base.TotalCycles/10
			geom := *base
			geom.RestEnergy = base.RestEnergy * 5 / 4
			geom.TotalEnergy = base.MuPEnergy + geom.RestEnergy
			geom.TotalCycles = base.TotalCycles - base.TotalCycles/20
			geom.ICacheAccessEnergy = base.ICacheAccessEnergy / 2
			bases := []*partition.Baseline{base, &shift, &geom}

			ns := len(e.Config().ResourceSets)
			for bi, b := range bases {
				for _, c := range pool {
					for si := 0; si < ns; si++ {
						for _, syn := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
							full, err := e.EvalFull(b, c, si, syn[0], syn[1])
							if err != nil {
								t.Fatal(err)
							}
							delta, err := e.Eval(b, c, si, syn[0], syn[1])
							if err != nil {
								t.Fatal(err)
							}
							if full.OF != delta.OF || full.EstCycles != delta.EstCycles ||
								full.EASIC != delta.EASIC || full.EMuPSaved != delta.EMuPSaved ||
								full.UASIC != delta.UASIC || full.UMuP != delta.UMuP ||
								full.GEQ != delta.GEQ || full.Eligible != delta.Eligible ||
								full.Reason != delta.Reason {
								t.Fatalf("base %d cluster %s set %d syn %v: delta diverges from full:\nfull  OF=%v cyc=%d EASIC=%v elig=%v %q\ndelta OF=%v cyc=%d EASIC=%v elig=%v %q",
									bi, c.Region.Label, si, syn,
									full.OF, full.EstCycles, full.EASIC, full.Eligible, full.Reason,
									delta.OF, delta.EstCycles, delta.EASIC, delta.Eligible, delta.Reason)
							}
						}
					}
				}
			}
			if s := e.MemoStats(); s.Hits == 0 || s.Binds != s.Pairs {
				t.Errorf("MemoStats = %+v, want hits and one bind per pair", s)
			}
		})
	}
}
