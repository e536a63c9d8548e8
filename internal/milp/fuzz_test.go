package milp

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// fuzzInstances are the instances FuzzCheck verifies certificates
// against: the greedy trap and one random instance with at least six
// clusters and an overlap.
func fuzzInstances() []*Instance {
	rng := rand.New(rand.NewSource(1))
	for {
		in := randomInstance(rng)
		overlaps := false
		for _, cl := range in.Clusters {
			overlaps = overlaps || cl.Conflicts != 0
		}
		if len(in.Clusters) >= 6 && overlaps {
			return []*Instance{trapInstance(), in}
		}
	}
}

// FuzzCheck feeds arbitrary JSON certificates to Check. It must never
// panic, and it may accept a certificate only if its claimed objective
// is the true minimum brute force finds. The corpus starts from each
// instance's genuine certificate and its forgeries.
func FuzzCheck(f *testing.F) {
	instances := fuzzInstances()
	minOF := make([]float64, len(instances))
	for i, in := range instances {
		minOF[i] = BruteForce(in).OF
		opt, err := SolveInstance(context.Background(), in, Config{Certificate: true})
		if err != nil {
			f.Fatal(err)
		}
		seeds := []Certificate{*opt.Cert}
		for _, fg := range forgeries(opt.Cert) {
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
			if Check(in, &cert) == nil && cert.OF != minOF[i] {
				t.Fatalf("instance %d: Check accepted objective %v, the minimum is %v", i, cert.OF, minOF[i])
			}
		}
	})
}
