package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// fuzzSourceBytes keeps served sources small so parse failures, size
// rejections and successes all stay cheap to reach.
const fuzzSourceBytes = 4096

// FuzzCanonicalize decodes arbitrary bytes into every request type the
// way the handlers do and canonicalizes them. It must never panic; a
// rejection is a 400 or 413; a request re-marshalled and canonicalized
// again keeps its key; the explore and exact key spaces never meet; and
// no accepted grid exceeds maxGeometries.
func FuzzCanonicalize(f *testing.F) {
	for _, body := range []string{
		`{"app":"3d","max_cores":2}`,
		`{"app":"engine","f":1.0,"max_clusters":5,"geq_budget":16000,"max_cores":1}`,
		`{"app":"engine","verify":true,"resource_sets":[{"name":"rs-std"},{"name":"custom","max":{"ALU":2,"MUL":1,"CMP":1}}]}`,
		`{"app":"3d","resource_sets":[{"name":"x","max":{"FPU":1}}]}`,
		`{"app":"3d","resource_sets":[{"name":"rs-huge"}]}`,
		`{"app":"3d","f":-1}`,
		`{"app":"3d","source":"func main() { }"}`,
		`{"source":"func main() {\n  x = ;\n}"}`,
		`{"source":"var out; func main() { var i; out = 0; for i = 0; i < 64; i = i + 1 { out = out + i*i; } }"}`,
		`{"source":"# ` + strings.Repeat("x", fuzzSourceBytes) + `\nfunc main() { }"}`,
		`{"app":"engine","sets":[64,128],"assoc":[1,2],"line_words":4}`,
		`{"app":"engine","sets":[48]}`,
		`{"app":"ckey","isweep":true}`,
		`{"app":"engine","sets":[16,16,16],"assoc":[` + strings.Repeat(`1,`, maxGeometries/3) + `1]}`,
		`{"app":"engine","max_hw":1,"geometries":[{},{"dsets":32}]}`,
		`{"app":"engine","max_hw":2,"geometries":[{},{"dsets":32}]}`,
		`{"app":"engine","geometries":[{"dsets":3}]}`,
		`{"app":"engine","geometries":[` + strings.Repeat(`{},`, maxGeometries) + `{}]}`,
		`{"app":"engine","max_hw":-1}`,
		`{"app":"engine","bogus":1}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanon(t, body, func(req *PartitionRequest) (string, *apiError) {
			_, _, key, aerr := req.canonicalize(fuzzSourceBytes)
			return key, aerr
		})
		checkCanon(t, body, func(req *SweepRequest) (string, *apiError) {
			_, pairs, key, aerr := req.canonicalize(fuzzSourceBytes)
			if len(pairs) > maxGeometries {
				t.Fatalf("sweep grid of %d geometries accepted", len(pairs))
			}
			return key, aerr
		})
		checkCanon(t, body, func(req *ExploreRequest) (string, *apiError) {
			in, aerr := req.canonicalize("explore/v1", fuzzSourceBytes)
			if aerr != nil {
				return "", aerr
			}
			if n := len(in.cfg.Geometries); n > maxGeometries {
				t.Fatalf("job grid of %d geometries accepted", n)
			}
			exact, aerr := req.canonicalize("exact/v1", fuzzSourceBytes)
			if aerr != nil || exact.key == in.key {
				t.Fatalf("exact canonicalization: err %v, key shared with explore: %v", aerr, exact != nil && exact.key == in.key)
			}
			return in.key, nil
		})
	})
}

// checkCanon decodes body into a T as the handlers do and holds its
// canonical key to the FuzzCanonicalize contract.
func checkCanon[T any](t *testing.T, body []byte, canon func(*T) (string, *apiError)) {
	t.Helper()
	var req T
	if decodeStrict(body, &req) != nil {
		return
	}
	key, aerr := canon(&req)
	if aerr != nil {
		if aerr.Status != http.StatusBadRequest && aerr.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%T rejected with status %d: %s", req, aerr.Status, aerr.Err)
		}
		return
	}
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatalf("%T not re-marshalable: %v", req, err)
	}
	var again T
	if err := decodeStrict(b, &again); err != nil {
		t.Fatalf("%T re-marshalled as %s does not decode: %v", req, b, err)
	}
	key2, aerr := canon(&again)
	if aerr != nil || key2 != key {
		t.Fatalf("%T re-marshalled as %s: key %q, err %v; want key %q", req, b, key2, aerr, key)
	}
}

// decodeStrict mirrors Server.decodeBody without the size cap.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
