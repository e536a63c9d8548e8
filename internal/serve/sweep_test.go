package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
	"lppart/internal/system"
)

// sweepBodyDigest is the SHA-256 of the /v1/sweep bodies of
// TestSweepBodyDigest, captured from the recorded-trace sweep the
// online profiler replaced.
const sweepBodyDigest = "17accda9ed579c78e74ce60f5da6bb92e8823252b2c38e9762cc061aabe438b3"

// TestSweepBodyDigest pins the /v1/sweep bodies of all six apps byte for
// byte over two grids: the default d-cache sweep, and an i-cache sweep
// at 16-word lines and associativities 1 and 4. The trace counts and
// compact size are in the bodies, so the online count is pinned too.
func TestSweepBodyDigest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	h := sha256.New()
	for _, a := range apps.All() {
		for _, grid := range []string{``, `,"isweep":true,"line_words":16,"assoc":[1,4]`} {
			st, b, _ := post(t, ts.URL+"/v1/sweep", fmt.Sprintf(`{"app":%q%s}`, a.Name, grid))
			if st != http.StatusOK {
				t.Fatalf("%s: status %d: %s", a.Name, st, b)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sweepBodyDigest {
		t.Fatalf("sweep body digest %s, want %s", got, sweepBodyDigest)
	}
}

// TestColdSweepNoTraceZeroAlloc: a cold sweep profiles its grid during
// the measurement's one ISS run instead of recording the reference
// stream, so it allocates at most what building the IR and measuring it
// allocate, plus a fixed allowance for the stack-distance profilers and
// the body — nothing that grows with the stream's length.
func TestColdSweepNoTraceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the standard library's sync.Pools (fmt's printers, encoding/json's encoder states) drop at random under -race")
	}
	const slack = 256 << 10
	s := New(Config{Workers: 1})
	ctx := context.Background()
	allocs := func(f func()) uint64 {
		f() // warm the ISS memory and the scratch pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, a := range apps.All() {
		req := SweepRequest{App: a.Name}
		prog, pairs, key, aerr := req.canonicalize(s.cfg.MaxSourceBytes)
		if aerr != nil {
			t.Fatal(aerr.Err)
		}
		measure := allocs(func() {
			ir, err := cdfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := system.MeasureInitialCtx(ctx, ir, system.Config{MaxInstrs: s.cfg.MaxInstrs}); err != nil {
				t.Fatal(err)
			}
		})
		sweep := allocs(func() {
			if res := s.computeSweep(ctx, prog, &req, pairs, key); res.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", a.Name, res.status, res.body)
			}
		})
		t.Logf("%s: computeSweep allocates %d B, cdfg.Build + MeasureInitialCtx %d B", a.Name, sweep, measure)
		if sweep > measure+slack {
			t.Errorf("%s: cold computeSweep allocates %d B, want at most cdfg.Build + MeasureInitialCtx's %d B + %d B",
				a.Name, sweep, measure, slack)
		}
	}
}
