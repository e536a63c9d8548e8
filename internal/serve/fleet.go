// Fleet endpoints: the cheap, independent parts of running several
// lppartd nodes side by side —
//
//   - routing: /v1/partition is forwarded to the canonical key's
//     consistent-hash owner, so the LRU + memostore cache tiers shard
//     cleanly across the fleet instead of duplicating entries on every
//     node;
//   - batching: /v1/batch amortizes many partition calls over one
//     request;
//   - the ledger: GET /v1/jobs lists this node's async jobs and every
//     reachable peer's, so any node answers for the whole fleet.
//
// Peer health is passive: a transport failure marks the peer down (the
// router stops picking it, the ledger skips it), any later success
// marks it back up.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"sort"
)

// forwardHeader marks a request already routed once; a node receiving
// it always computes locally, so a stale or disagreeing ring degrades
// to one extra hop instead of a proxy loop.
const forwardHeader = "X-Lppart-Forwarded"

// maxPeerResponseBytes caps a proxied peer response.
const maxPeerResponseBytes = 64 << 20

// ringReplicas is the number of virtual nodes per peer.
const ringReplicas = 64

// ring is a consistent-hash ring over peer addresses: every node of a
// fleet, given the same peer list, maps the same canonical request key
// to the same owner, so one key's results concentrate on one node
// instead of being recomputed everywhere. Virtual nodes smooth the
// key-space split; SHA-256 keeps placement independent of Go's map or
// hash seed, so the mapping is stable across processes and restarts.
type ring struct {
	peers  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// newRing builds a ring over the peers. Duplicate and empty peer
// entries are dropped; the peer order given does not affect placement.
func newRing(peers []string) *ring {
	seen := make(map[string]bool, len(peers))
	r := &ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
	}
	sort.Strings(r.peers)
	for pi, p := range r.peers {
		for v := 0; v < ringReplicas; v++ {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			sum := sha256.Sum256(append([]byte(p+"#"), buf[:]...))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), peer: pi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.peers[r.points[i].peer] < r.peers[r.points[j].peer]
	})
	return r
}

// owner returns the peer owning the key — the first ring point at or
// after the key's hash, wrapping. An empty ring owns nothing ("").
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	sum := sha256.Sum256([]byte(key))
	h := binary.BigEndian.Uint64(sum[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.peers[r.points[i%len(r.points)].peer]
}

// forwardPartition routes one canonicalized /v1/partition request to
// its consistent-hash owner and returns the owner's answer, reporting
// whether there is one. Local computation is the fallback for every
// failure mode — ring empty, owner down, transport error — so routing
// can only ever cost an extra hop, never an answer.
func (s *Server) forwardPartition(r *http.Request, req *PartitionRequest, key string) (*flightResult, bool) {
	if s.ring == nil || r.Header.Get(forwardHeader) != "" {
		return nil, false
	}
	owner := s.ring.owner(key)
	if owner == "" || owner == s.cfg.Self || s.peerIsDown(owner) {
		return nil, false
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, false
	}
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		owner+"/v1/partition", bytes.NewReader(payload))
	if err != nil {
		return nil, false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardHeader, s.cfg.Self)
	hres, err := http.DefaultClient.Do(preq)
	if err != nil {
		s.markPeer(owner, false)
		return nil, false
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hres.Body, maxPeerResponseBytes))
	if err != nil {
		s.markPeer(owner, false)
		return nil, false
	}
	s.markPeer(owner, true)
	// The owner's answer is authoritative, sheds included: a 429 from
	// the owner is the fleet's backpressure, not a routing failure.
	return &flightResult{status: hres.StatusCode, body: raw,
		cacheHit: hres.Header.Get("X-Cache") == "hit"}, true
}

// maxBatchItems caps one /v1/batch request.
const maxBatchItems = 64

// BatchRequest is POST /v1/batch: many partition evaluations in one
// call. Items run serially through the same cache → coalesce →
// admission ladder as /v1/partition, so a batch is exactly as cheap as
// its cache misses and never holds more than one worker slot.
type BatchRequest struct {
	Requests []PartitionRequest `json:"requests"`
}

// BatchItem is one finished batch entry: the item's HTTP status plus
// the body /v1/partition would have served for it.
type BatchItem struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse preserves request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) *flightResult {
	var req BatchRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return errResult(aerr)
	}
	if len(req.Requests) == 0 {
		return errResult(badRequest("empty batch"))
	}
	if len(req.Requests) > maxBatchItems {
		return errResult(badRequest("batch too large"))
	}
	resp := BatchResponse{Results: make([]BatchItem, 0, len(req.Requests))}
	for i := range req.Requests {
		item := &req.Requests[i]
		prog, sets, key, aerr := item.canonicalize(s.cfg.MaxSourceBytes)
		if aerr != nil {
			resp.Results = append(resp.Results, BatchItem{Status: aerr.Status, Body: jsonBody(aerr)})
			continue
		}
		res := s.resultFor(r, key, s.partitionCompute(item, prog, sets, key))
		resp.Results = append(resp.Results, BatchItem{Status: res.status, Body: res.body})
	}
	return &flightResult{status: http.StatusOK, body: jsonBody(&resp)}
}

// JobSummary is one ledger row of GET /v1/jobs.
type JobSummary struct {
	// Node is the peer that owns the job ("" on a standalone node and
	// for this node's own rows).
	Node  string `json:"node,omitempty"`
	JobID string `json:"job_id"`
	Key   string `json:"key"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

// JobsResponse is the fleet-wide job ledger.
type JobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}

// handleJobs lists this node's jobs and — on a fleet node, unless the
// request was itself forwarded — every reachable peer's, so any node
// answers for the whole fleet's ledger.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) *flightResult {
	var resp JobsResponse
	for _, snap := range s.jobs.All() {
		resp.Jobs = append(resp.Jobs, JobSummary{
			JobID: snap.ID, Key: snap.Key, State: snap.State.String(),
			Done: snap.Done, Total: snap.Total, Error: snap.Error,
		})
	}
	if s.ring != nil && r.Header.Get(forwardHeader) == "" {
		resp.Jobs = append(resp.Jobs, s.peerJobs(r.Context())...)
	}
	return &flightResult{status: http.StatusOK, body: jsonBody(&resp)}
}

// peerJobs collects the reachable peers' ledgers, sorted by peer URL so
// the aggregate order is stable.
func (s *Server) peerJobs(ctx context.Context) []JobSummary {
	var out []JobSummary
	peers := append([]string(nil), s.cfg.Peers...)
	sort.Strings(peers)
	for _, peer := range peers {
		if peer == s.cfg.Self || s.peerIsDown(peer) {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs", nil)
		if err != nil {
			continue
		}
		req.Header.Set(forwardHeader, s.cfg.Self)
		hres, err := http.DefaultClient.Do(req)
		if err != nil {
			s.markPeer(peer, false)
			continue
		}
		raw, rerr := io.ReadAll(io.LimitReader(hres.Body, maxPeerResponseBytes))
		hres.Body.Close() //lint:err body already fully read (or rerr captures the failure)
		if rerr != nil || hres.StatusCode != http.StatusOK {
			continue
		}
		s.markPeer(peer, true)
		var pr JobsResponse
		if json.Unmarshal(raw, &pr) != nil {
			continue
		}
		for _, j := range pr.Jobs {
			j.Node = peer
			out = append(out, j)
		}
	}
	return out
}

// markPeer records one passive health observation.
func (s *Server) markPeer(peer string, up bool) {
	s.peerMu.Lock()
	if up {
		delete(s.peerDown, peer)
	} else {
		s.peerDown[peer] = true
	}
	s.peerMu.Unlock()
}

// peerIsDown reports the last known health of a peer.
func (s *Server) peerIsDown(peer string) bool {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	return s.peerDown[peer]
}

// countPeers counts configured peers by health state for the
// lppartd_peers gauge (Self counts as up: a node scraping its own
// /metrics is evidently alive).
func (s *Server) countPeers(down bool) int {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	n := 0
	for _, p := range s.cfg.Peers {
		if s.peerDown[p] && p != s.cfg.Self {
			if down {
				n++
			}
		} else if !down {
			n++
		}
	}
	return n
}
