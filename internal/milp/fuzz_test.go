package milp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// fuzzInstances are the instances FuzzCheck verifies certificates
// against: the greedy trap and one random instance with at least six
// clusters, some of them nested.
func fuzzInstances() []*Instance {
	rng := rand.New(rand.NewSource(1))
	for {
		in := randomInstance(rng)
		nested := false
		for _, cl := range in.Clusters {
			nested = nested || cl.Parent != 0
		}
		if len(in.Clusters) >= 6 && nested {
			return []*Instance{trapInstance(), in}
		}
	}
}

// FuzzCheck feeds arbitrary JSON certificates to Check. It must never
// panic, it must give the map-keyed oracle's verdict, and it may accept a
// certificate only if its claimed objective is the true minimum brute
// force finds. The corpus starts from each instance's genuine
// certificate, its forgeries and its trail edits: duplicate keys, a key
// in both lists, out-of-range and non-ascending picks.
func FuzzCheck(f *testing.F) {
	instances := fuzzInstances()
	minOF := make([]float64, len(instances))
	for i, in := range instances {
		ref, err := BruteForce(in)
		if err != nil {
			f.Fatal(err)
		}
		minOF[i] = ref.OF
		opt := solveCert(f, in)
		seeds := []Certificate{*opt.Cert}
		for _, fg := range append(forgeries(opt.Cert), trailEdits(opt.Cert)...) {
			seeds = append(seeds, fg.cert)
		}
		for _, c := range seeds {
			b, err := json.Marshal(c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cert Certificate
		if json.Unmarshal(data, &cert) != nil {
			return
		}
		for i, in := range instances {
			if sameVerdict(t, in, &cert, fmt.Sprintf("instance %d", i)) && cert.OF != minOF[i] {
				t.Fatalf("instance %d: Check accepted objective %v, the minimum is %v", i, cert.OF, minOF[i])
			}
		}
	})
}
