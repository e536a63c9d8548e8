// Batch and the job ledger: POST /v1/batch amortizes many partition
// calls over one request, and GET /v1/jobs lists this node's async
// explore/exact jobs in one read, so a client polling many jobs makes
// one request per tick instead of one per job.

package serve

import (
	"encoding/json"
	"net/http"
)

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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) *result {
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
	return &result{status: http.StatusOK, body: jsonBody(&resp)}
}

// JobSummary is one ledger row of GET /v1/jobs.
type JobSummary struct {
	JobID string `json:"job_id"`
	Key   string `json:"key"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

// JobsResponse is this node's job ledger.
type JobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}

// handleJobs lists this node's jobs; an empty ledger is an empty list.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) *result {
	resp := JobsResponse{Jobs: []JobSummary{}}
	for _, snap := range s.jobs.All() {
		resp.Jobs = append(resp.Jobs, JobSummary{
			JobID: snap.ID, Key: snap.Key, State: snap.State.String(),
			Done: snap.Done, Total: snap.Total, Error: snap.Error,
		})
	}
	return &result{status: http.StatusOK, body: jsonBody(&resp)}
}
