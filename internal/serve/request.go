package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/partition"
	"lppart/internal/tech"
	"lppart/internal/trace"
)

// ResourceSetSpec selects or defines one hardware budget (Fig. 1 line 7).
// With only Name set it selects the named set from
// tech.DefaultResourceSets(); with Max set it defines a custom set whose
// keys are the resource mnemonics (CMP, ALU, SHIFT, MUL, DIV).
type ResourceSetSpec struct {
	Name string         `json:"name"`
	Max  map[string]int `json:"max,omitempty"`
}

// PartitionRequest is the body of POST /v1/partition: the paper's Fig. 1
// input tuple. Exactly one of App (a built-in Table 1 application) or
// Source (behavioral DSL text) must be set; zero-valued knobs select the
// partitioner defaults (F=1, N_max^c=5, GEQ budget 16000, one core, the
// default resource sets).
type PartitionRequest struct {
	App          string            `json:"app,omitempty"`
	Source       string            `json:"source,omitempty"`
	F            float64           `json:"f,omitempty"`
	MaxClusters  int               `json:"max_clusters,omitempty"`
	GEQBudget    int               `json:"geq_budget,omitempty"`
	MaxCores     int               `json:"max_cores,omitempty"`
	ResourceSets []ResourceSetSpec `json:"resource_sets,omitempty"`
	// Verify runs the PR 3 pipeline-stage verifiers and the decision
	// audit server-side; the response reports Verified=true.
	Verify bool `json:"verify,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: one application plus a
// cache-geometry grid for the single-pass stack-distance profiler.
// Zero-valued grid fields select cmd/cacheprof's defaults.
type SweepRequest struct {
	App    string `json:"app,omitempty"`
	Source string `json:"source,omitempty"`
	// ISweep sweeps the instruction cache instead of the data cache.
	ISweep    bool  `json:"isweep,omitempty"`
	Sets      []int `json:"sets,omitempty"`
	Assoc     []int `json:"assoc,omitempty"`
	LineWords int   `json:"line_words,omitempty"`
}

// maxGeometries caps the cache geometries one request may ask for: a
// sweep's sets×assoc grid or a job's geometry list. Requests are checked
// before any grid is built, so a small body cannot make the handler
// allocate a huge one. The defaults are far below it (cacheprof's sweep
// grid has 14 points).
const maxGeometries = 256

// kindByName resolves a resource mnemonic; the array is small, so a
// linear scan beats maintaining a parallel map.
func kindByName(name string) (tech.ResourceKind, bool) {
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// resolveResourceSets turns the request's specs into concrete sets. nil
// specs select the defaults.
func resolveResourceSets(specs []ResourceSetSpec) ([]tech.ResourceSet, error) {
	if len(specs) == 0 {
		return nil, nil // partition.Config defaults to tech.DefaultResourceSets()
	}
	defaults := tech.DefaultResourceSets()
	out := make([]tech.ResourceSet, 0, len(specs))
	for i, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("resource_sets[%d]: name is required", i)
		}
		if len(spec.Max) == 0 {
			found := false
			for _, d := range defaults {
				if d.Name == spec.Name {
					out = append(out, d)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("resource_sets[%d]: unknown built-in set %q", i, spec.Name)
			}
			continue
		}
		rs := tech.ResourceSet{Name: spec.Name}
		// Iterate kinds (not the request map) so validation order — and
		// therefore the reported error — is deterministic.
		assigned := 0
		for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
			n, ok := spec.Max[k.String()]
			if !ok {
				continue
			}
			if n < 0 {
				return nil, fmt.Errorf("resource_sets[%d]: %s: negative budget %d", i, k, n)
			}
			rs.Max[k] = n
			assigned++
		}
		if assigned != len(spec.Max) {
			keys := make([]string, 0, len(spec.Max))
			for key := range spec.Max { //lint:ordered keys are sorted before the first one is reported
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				if _, ok := kindByName(key); !ok {
					return nil, fmt.Errorf("resource_sets[%d]: unknown resource kind %q (want CMP, ALU, SHIFT, MUL or DIV)", i, key)
				}
			}
		}
		out = append(out, rs)
	}
	return out, nil
}

// canonRS is a resolved resource set in canonical (array) form.
type canonRS struct {
	Name string                     `json:"name"`
	Max  [tech.NumResourceKinds]int `json:"max"`
}

// canonSets renders resolved resource sets in canonical form.
func canonSets(sets []tech.ResourceSet) []canonRS {
	out := make([]canonRS, len(sets))
	for i, rs := range sets {
		out[i] = canonRS{Name: rs.Name, Max: rs.Max}
	}
	return out
}

// canonPartition is the fully-defaulted partition request the cache key
// is derived from: the complete Fig. 1 input tuple. Two requests that
// resolve to the same tuple — e.g. one relying on defaults and one
// spelling them out — share a cache entry, because the service's answer
// is a pure function of this struct.
type canonPartition struct {
	Kind        string    `json:"kind"` // "partition/v1"
	App         string    `json:"app"`
	SourceSHA   string    `json:"source_sha"` // sha256 of Source ("" for built-ins)
	F           float64   `json:"f"`
	MaxClusters int       `json:"max_clusters"`
	GEQBudget   int       `json:"geq_budget"`
	MaxCores    int       `json:"max_cores"`
	Sets        []canonRS `json:"sets"`
	Verify      bool      `json:"verify"`
}

// canonSweep is the fully-defaulted sweep request behind the sweep cache
// key.
type canonSweep struct {
	Kind      string `json:"kind"` // "sweep/v1"
	App       string `json:"app"`
	SourceSHA string `json:"source_sha"`
	ISweep    bool   `json:"isweep"`
	Sets      []int  `json:"sets"`
	Assoc     []int  `json:"assoc"`
	LineWords int    `json:"line_words"`
}

// hashCanon hashes the canonical form of a request. encoding/json
// marshals struct fields in declaration order with %g floats, so the
// bytes — and the key — are deterministic.
func hashCanon(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: canonical request not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parseSource resolves the request's application: a built-in by name, or
// served DSL text hardened by behav.ParseLimited. The returned string is
// the SHA-256 of a custom source ("" for built-ins), for the cache key.
func parseSource(app, source string, maxSourceBytes int) (*behav.Program, string, *apiError) {
	switch {
	case app != "" && source != "":
		return nil, "", badRequest("app and source are mutually exclusive")
	case app != "":
		a, err := apps.ByName(app)
		if err != nil {
			return nil, "", badRequest(err.Error())
		}
		p, err := a.Parse()
		if err != nil {
			return nil, "", internalError(err)
		}
		return p, "", nil
	case source != "":
		p, err := behav.ParseLimited("request", source, maxSourceBytes)
		if err != nil {
			return nil, "", parseError(err)
		}
		sum := sha256.Sum256([]byte(source))
		return p, hex.EncodeToString(sum[:]), nil
	default:
		return nil, "", badRequest("need app or source")
	}
}

// canonicalize validates the partition request and returns its cache key
// plus the resolved inputs.
func (req *PartitionRequest) canonicalize(maxSourceBytes int) (*behav.Program, []tech.ResourceSet, string, *apiError) {
	prog, srcSHA, aerr := parseSource(req.App, req.Source, maxSourceBytes)
	if aerr != nil {
		return nil, nil, "", aerr
	}
	if req.F < 0 {
		return nil, nil, "", badRequest("f must be >= 0")
	}
	if req.MaxClusters < 0 || req.GEQBudget < 0 || req.MaxCores < 0 {
		return nil, nil, "", badRequest("max_clusters, geq_budget and max_cores must be >= 0")
	}
	sets, err := resolveResourceSets(req.ResourceSets)
	if err != nil {
		return nil, nil, "", badRequest(err.Error())
	}
	pc := partition.Config{F: req.F, MaxClusters: req.MaxClusters, GEQBudget: req.GEQBudget,
		MaxCores: req.MaxCores, ResourceSets: sets}
	pc.Defaults()
	c := canonPartition{
		Kind:        "partition/v1",
		App:         req.App,
		SourceSHA:   srcSHA,
		F:           pc.F,
		MaxClusters: pc.MaxClusters,
		GEQBudget:   pc.GEQBudget,
		MaxCores:    pc.MaxCores,
		Sets:        canonSets(pc.ResourceSets),
		Verify:      req.Verify,
	}
	return prog, sets, hashCanon(c), nil
}

// canonicalize validates the sweep request and returns its cache key plus
// the resolved inputs: the parsed program and the geometry grid.
func (req *SweepRequest) canonicalize(maxSourceBytes int) (*behav.Program, [][2]cache.Config, string, *apiError) {
	prog, srcSHA, aerr := parseSource(req.App, req.Source, maxSourceBytes)
	if aerr != nil {
		return nil, nil, "", aerr
	}
	c := canonSweep{
		Kind:      "sweep/v1",
		App:       req.App,
		SourceSHA: srcSHA,
		ISweep:    req.ISweep,
		Sets:      req.Sets,
		Assoc:     req.Assoc,
		LineWords: req.LineWords,
	}
	if len(c.Sets) == 0 {
		c.Sets = []int{16, 32, 64, 128, 256, 512, 1024}
	}
	if len(c.Assoc) == 0 {
		c.Assoc = []int{1, 2}
	}
	if c.LineWords == 0 {
		c.LineWords = 4
	}
	if c.LineWords <= 0 || c.LineWords&(c.LineWords-1) != 0 {
		return nil, nil, "", badRequest(fmt.Sprintf("line_words: %d is not a positive power of two", c.LineWords))
	}
	if n := len(c.Sets) * len(c.Assoc); n > maxGeometries {
		return nil, nil, "", badRequest(fmt.Sprintf("sets×assoc: %d geometries exceed the limit of %d", n, maxGeometries))
	}
	pairs, err := trace.Grid(c.Sets, c.Assoc, c.LineWords, c.ISweep)
	if err != nil {
		return nil, nil, "", badRequest(err.Error())
	}
	return prog, pairs, hashCanon(c), nil
}
