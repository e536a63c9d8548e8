package serve

import (
	"testing"

	"lppart/internal/behav"
)

// TestCanonicalKeysPinned pins the canonical keys of {"app":"MPG"} on
// every keyed endpoint, spelled with defaults and without: the keys
// address persisted results and dedupe jobs, so the defaulting behind
// them must not move.
func TestCanonicalKeysPinned(t *testing.T) {
	const (
		partitionKey = "002fd34ec34a7d49636a292ee073ed05030c6957391599e9561a2dd28c6f2ba7"
		exploreKey   = "dd89e862ca8eb319ed855ce270c2d7b15d7ecaee7ff3d650de3a83804bfff853"
		exactKey     = "de84c22422c3d6bc348db834e3bb13ddeb89858e927f84db5062a39971fcab8b"
	)
	limit := behav.DefaultMaxSourceBytes
	for _, req := range []PartitionRequest{
		{App: "MPG"},
		{App: "MPG", F: 1, MaxClusters: 5, GEQBudget: 16000, MaxCores: 1},
	} {
		if _, _, key, aerr := req.canonicalize(limit); aerr != nil || key != partitionKey {
			t.Errorf("partition %+v: key %s (%v), want %s", req, key, aerr, partitionKey)
		}
	}
	for _, kind := range []struct{ name, key string }{{"explore", exploreKey}, {"exact", exactKey}} {
		for _, req := range []ExploreRequest{
			{App: "MPG"},
			{App: "MPG", F: 1, MaxClusters: 5, GEQBudget: 16000, MaxHW: 2},
		} {
			in, aerr := req.canonicalize(kind.name+"/v1", limit)
			if aerr != nil {
				t.Fatalf("%s %+v: %v", kind.name, req, aerr)
			}
			if in.key != kind.key {
				t.Errorf("%s %+v: key %s, want %s", kind.name, req, in.key, kind.key)
			}
		}
	}
}
