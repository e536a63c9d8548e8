package asic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// verilogDigest is the SHA-256 of the netlists `lppart -verilog` emits for
// the chosen cores of all six apps, at one core and at up to three cores.
// Any change to binding order, instance numbering or netlist text moves
// it.
const verilogDigest = "1bdf3d54fb6da67e7d4a7f871859c15000d86a6d6dfadd01be4566435dd471de"

func TestVerilogDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates all six apps twice")
	}
	h := sha256.New()
	for _, cores := range []int{1, 3} {
		for _, a := range apps.All() {
			src, err := a.Parse()
			if err != nil {
				t.Fatal(err)
			}
			// The lppart CLI's defaults.
			var cfg system.Config
			cfg.Part.F = 1
			cfg.Part.MaxClusters = 5
			cfg.Part.GEQBudget = 16000
			cfg.Part.MaxCores = cores
			ev, err := system.Evaluate(src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			for i, ch := range ev.Decision.Choices {
				fmt.Fprintln(h, ch.Binding.Verilog(fmt.Sprintf("%s_core%d", ev.App, i), tech.Default()))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != verilogDigest {
		t.Fatalf("netlist digest %s, want %s", got, verilogDigest)
	}
}
