package milp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/dse"
)

// roundTrip fails t unless c's JSON decodes to a certificate that
// marshals to the same bytes and gets the same Check verdict.
func roundTrip(t *testing.T, in *Instance, c *Certificate, what string) {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var back Certificate
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("%s: certificate JSON does not round-trip:\n%s\nvs\n%s", what, again, b)
	}
	if got, want := Check(in, &back), Check(in, c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: decoded certificate checks %v, the solver's %v", what, got, want)
	}
}

// TestCertificateRoundTrip: on the 2000 random instances and every
// geometry of the six apps (pre-selection widened to 12 clusters, MaxHW
// 3), a certificate's JSON decodes back to a trail that renders the
// same bytes and passes Check.
func TestCertificateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		in := randomInstance(rng)
		roundTrip(t, in, solveCert(t, in).Cert, fmt.Sprintf("random instance %d", i))
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			var cfg dse.Config
			cfg.Sys.Part.MaxClusters = 12
			res, err := Solve(context.Background(), prepApp(t, a.Name, cfg),
				Config{MaxHW: 3, Workers: 1, Certificate: true})
			if err != nil {
				t.Fatal(err)
			}
			for gi, o := range res.Optima {
				roundTrip(t, o.Inst, o.Cert, fmt.Sprintf("geometry %d", gi))
			}
		})
	}
}
