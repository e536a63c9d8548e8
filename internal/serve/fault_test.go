package serve

import (
	"encoding/json"
	"testing"
)

// faultingPrograms are sources the measurement rejects, with the 422 body
// /v1/partition returns for each.
var faultingPrograms = []struct {
	name, src, body string
}{
	{"index", "var a[3];\nfunc main() { var i; i = 5; a[i] = 1; }",
		`{"error":"system: profiling: runtime: 2:29: index 5 out of range [0,3) of a"}` + "\n"},
	{"recursion", "func f(n) { if n <= 0 { return 0; } return 1 + f(n - 1); }\nfunc main() { return f(2000); }",
		`{"error":"system: profiling: runtime: 0:0: call depth exceeds 1024"}` + "\n"},
}

// TestPartitionFault422 pins the 422 bodies of faulting programs byte
// for byte: an out-of-range index and runaway recursion.
func TestPartitionFault422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range faultingPrograms {
		body, _ := json.Marshal(PartitionRequest{Source: tc.src})
		st, b, _ := post(t, ts.URL+"/v1/partition", string(body))
		if st != 422 || string(b) != tc.body {
			t.Errorf("%s: status %d body %q, want 422 %q", tc.name, st, b, tc.body)
		}
	}
}

// TestSweepRejectsFaultingProgram: /v1/sweep rejects the programs
// /v1/partition rejects, with the same body.
func TestSweepRejectsFaultingProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range faultingPrograms {
		body, _ := json.Marshal(SweepRequest{Source: tc.src})
		st, b, _ := post(t, ts.URL+"/v1/sweep", string(body))
		if st != 422 || string(b) != tc.body {
			t.Errorf("%s: status %d body %.200q, want 422 %q", tc.name, st, b, tc.body)
		}
	}
}
