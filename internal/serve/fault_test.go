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
// /v1/partition rejects, with the same body — also a program within the
// IR step limit whose compiled form exceeds the ISS instruction limit.
func TestSweepRejectsFaultingProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range faultingPrograms {
		body, _ := json.Marshal(SweepRequest{Source: tc.src})
		st, b, _ := post(t, ts.URL+"/v1/sweep", string(body))
		if st != 422 || string(b) != tc.body {
			t.Errorf("%s: status %d body %.200q, want 422 %q", tc.name, st, b, tc.body)
		}
	}

	// 581 IR steps and 778 instructions.
	const dotProduct = "var a[64]; var s;\nfunc main() { var i; for i = 0; i < 64; i = i + 1 { s = s + a[i] * a[63 - i]; } }"
	const want = `{"error":"system: initial design: iss: pc=8: instruction limit 581 exceeded"}` + "\n"
	_, ts = newTestServer(t, Config{Workers: 1, MaxInstrs: 581})
	body, _ := json.Marshal(PartitionRequest{Source: dotProduct})
	pst, pb, _ := post(t, ts.URL+"/v1/partition", string(body))
	body, _ = json.Marshal(SweepRequest{Source: dotProduct})
	st, b, _ := post(t, ts.URL+"/v1/sweep", string(body))
	if pst != 422 || string(pb) != want {
		t.Errorf("instruction limit: partition status %d body %q, want 422 %q", pst, pb, want)
	}
	if st != pst || string(b) != string(pb) {
		t.Errorf("instruction limit: sweep status %d body %q, want partition's %d %q", st, b, pst, pb)
	}
}
