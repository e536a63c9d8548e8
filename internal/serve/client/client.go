// Package client is the typed Go client for lppartd. It speaks the
// /v1 JSON API and retries transient failures (HTTP 429/503/5xx and
// transport errors) with capped exponential backoff plus full jitter, so
// a fleet of clients hitting a shedding server spreads its retries
// instead of thundering back in lockstep. With several endpoints
// (NewMulti), retries rotate across the fleet's peers and repeatedly
// failing peers are sidelined until they answer again, so one dead or
// shedding node costs a backoff, not an error.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand" //lint:nondet retry jitter only; never in a response body
	"net/http"
	"strconv"
	"sync"
	"time"

	"lppart/internal/serve"
)

// Config tunes one Client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8095".
	BaseURL string
	// Endpoints are additional equivalent server roots (a fleet's
	// peers). Requests go to the preferred endpoint; a retryable
	// failure rotates the retry — same backoff, same Retry-After floor
	// — onto the next peer, and an endpoint that fails repeatedly is
	// skipped until every peer looks unhealthy. Usually set via
	// NewMulti rather than directly.
	Endpoints []string
	// MaxRetries bounds retry attempts after the first try (default 3).
	MaxRetries int
	// BaseBackoff is the first retry's backoff cap (default 100ms); each
	// further attempt doubles the cap, and the actual sleep is uniform in
	// [0, cap) (full jitter). A server-provided Retry-After overrides the
	// cap's lower bound.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 2s).
	MaxBackoff time.Duration
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// Rand overrides the jitter source (for deterministic tests).
	Rand *rand.Rand
}

// Client is a typed lppartd API client.
type Client struct {
	cfg Config

	// Per-endpoint failover state; eps always has at least one entry.
	mu  sync.Mutex
	eps []*endpointState
	cur int
}

// endpointState is one peer's passive health record.
type endpointState struct {
	url   string
	fails int // consecutive retryable failures
}

// failThreshold is how many consecutive retryable failures sideline an
// endpoint. Sidelined endpoints are still used when every peer is
// sidelined (a full outage should keep probing, not give up), and a
// single success reinstates the peer.
const failThreshold = 3

// ErrorBody is the server's JSON error body; parse errors in served
// sources carry a 1-based line and column.
type ErrorBody struct {
	Err  string `json:"error"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
}

// APIError is a non-retryable (or retries-exhausted) API failure, carrying
// the server's JSON error body.
type APIError struct {
	Status int
	Body   ErrorBody
}

func (e *APIError) Error() string {
	if e.Body.Line > 0 {
		return fmt.Sprintf("lppartd: HTTP %d: %s (line %d, col %d)",
			e.Status, e.Body.Err, e.Body.Line, e.Body.Col)
	}
	return fmt.Sprintf("lppartd: HTTP %d: %s", e.Status, e.Body.Err)
}

// New returns a client for the server at baseURL.
func New(baseURL string, opts ...func(*Config)) *Client {
	cfg := Config{BaseURL: baseURL}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	c := &Client{cfg: cfg}
	for _, u := range append([]string{cfg.BaseURL}, cfg.Endpoints...) {
		if u == "" {
			continue
		}
		dup := false
		for _, e := range c.eps {
			if e.url == u {
				dup = true
				break
			}
		}
		if !dup {
			c.eps = append(c.eps, &endpointState{url: u})
		}
	}
	if len(c.eps) == 0 {
		c.eps = []*endpointState{{url: cfg.BaseURL}}
	}
	return c
}

// NewMulti returns a failover client over several equivalent endpoints
// (a fleet's peer URLs). The first endpoint is preferred; see
// Config.Endpoints for the rotation rules.
func NewMulti(endpoints []string, opts ...func(*Config)) *Client {
	if len(endpoints) == 0 {
		panic("lppartd client: NewMulti needs at least one endpoint")
	}
	return New(endpoints[0], append([]func(*Config){func(c *Config) {
		c.Endpoints = endpoints[1:]
	}}, opts...)...)
}

// pick returns the endpoint for the next attempt: the preferred (or
// last-good) endpoint unless it is sidelined, else the next healthy
// peer in rotation; when everything is sidelined, whatever cur points
// at — an outage keeps probing.
func (c *Client) pick() *endpointState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(c.eps); i++ {
		ep := c.eps[(c.cur+i)%len(c.eps)]
		if ep.fails < failThreshold {
			c.cur = (c.cur + i) % len(c.eps)
			return ep
		}
	}
	return c.eps[c.cur]
}

// mark records one attempt's outcome; a retryable failure rotates cur
// off the failed endpoint so the next attempt lands on the next peer.
func (c *Client) mark(ep *endpointState, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		ep.fails = 0
		return
	}
	ep.fails++
	for i, e := range c.eps {
		if e == ep {
			c.cur = (i + 1) % len(c.eps)
			return
		}
	}
}

// WithHTTPClient overrides the transport.
func WithHTTPClient(hc *http.Client) func(*Config) {
	return func(c *Config) { c.HTTPClient = hc }
}

// WithRetries overrides the retry budget and backoff bounds.
func WithRetries(max int, base, cap time.Duration) func(*Config) {
	return func(c *Config) { c.MaxRetries = max; c.BaseBackoff = base; c.MaxBackoff = cap }
}

// WithRand overrides the jitter source (deterministic tests).
func WithRand(r *rand.Rand) func(*Config) {
	return func(c *Config) { c.Rand = r }
}

// Result wraps a decoded response with its transport metadata.
type Result[T any] struct {
	Value T
	// CacheHit reports the server's X-Cache header.
	CacheHit bool
	// Attempts is how many HTTP requests were sent (1 = no retries).
	Attempts int
}

// Partition runs POST /v1/partition.
func (c *Client) Partition(ctx context.Context, req *serve.PartitionRequest) (*Result[*serve.PartitionResponse], error) {
	return do[*serve.PartitionResponse](c, ctx, http.MethodPost, "/v1/partition", req)
}

// Sweep runs POST /v1/sweep.
func (c *Client) Sweep(ctx context.Context, req *serve.SweepRequest) (*Result[*serve.SweepResponse], error) {
	return do[*serve.SweepResponse](c, ctx, http.MethodPost, "/v1/sweep", req)
}

// Batch runs POST /v1/batch.
func (c *Client) Batch(ctx context.Context, req *serve.BatchRequest) (*Result[*serve.BatchResponse], error) {
	return do[*serve.BatchResponse](c, ctx, http.MethodPost, "/v1/batch", req)
}

// Apps runs GET /v1/apps.
func (c *Client) Apps(ctx context.Context) (*Result[*serve.AppsResponse], error) {
	return do[*serve.AppsResponse](c, ctx, http.MethodGet, "/v1/apps", nil)
}

// Healthy reports whether any endpoint's /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool {
	c.mu.Lock()
	urls := make([]string, len(c.eps))
	for i, ep := range c.eps {
		urls[i] = ep.url
	}
	c.mu.Unlock()
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			continue
		}
		resp.Body.Close() //lint:err health probe, the status code is the only signal
		if resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}

// retryable reports whether a status is worth another attempt: shedding
// (429/503) and transient server trouble (other 5xx, except 501).
func retryable(status int) bool {
	switch {
	case status == http.StatusTooManyRequests:
		return true
	case status == http.StatusNotImplemented:
		return false
	case status >= 500:
		return true
	default:
		return false
	}
}

// backoff returns the sleep before attempt n (0-based retry index):
// uniform in [0, min(base<<n, cap)) — "full jitter" — raised to any
// server-provided Retry-After hint.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	limit := c.cfg.BaseBackoff << n
	if limit > c.cfg.MaxBackoff || limit <= 0 {
		limit = c.cfg.MaxBackoff
	}
	var d time.Duration
	if c.cfg.Rand != nil {
		d = time.Duration(c.cfg.Rand.Int63n(int64(limit))) //lint:nondet retry jitter
	} else {
		d = time.Duration(rand.Int63n(int64(limit))) //lint:nondet retry jitter
	}
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header (seconds form only).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do sends one API request with retries and decodes the JSON response.
func do[T any](c *Client, ctx context.Context, method, path string, body any) (*Result[T], error) {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("lppartd client: encode request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt-1, retryAfterOf(lastErr))
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ep := c.pick()
		res, err := once[T](c, ctx, method, ep.url+path, payload, attempt+1)
		if err == nil {
			c.mark(ep, true)
			return res, nil
		}
		lastErr = err
		var ae *retryableError
		if !errorAs(err, &ae) {
			return nil, err
		}
		// A shed or dead peer: count the failure and rotate, so the
		// retry — after the same jittered, Retry-After-respecting
		// backoff — lands on the next endpoint.
		c.mark(ep, false)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	var ae *retryableError
	if errorAs(lastErr, &ae) {
		return nil, ae.apiErr
	}
	return nil, lastErr
}

// retryableError wraps a retry-worthy failure with the server's
// Retry-After hint.
type retryableError struct {
	apiErr     error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.apiErr.Error() }

func retryAfterOf(err error) time.Duration {
	var re *retryableError
	if errorAs(err, &re) {
		return re.retryAfter
	}
	return 0
}

// errorAs is errors.As for *retryableError without importing errors (the
// wrapper is always the top-level error here).
func errorAs(err error, target **retryableError) bool {
	re, ok := err.(*retryableError)
	if ok {
		*target = re
	}
	return ok
}

// once sends a single HTTP request to url (an endpoint root plus path).
func once[T any](c *Client, ctx context.Context, method, url string, payload []byte, attempt int) (*Result[T], error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("lppartd client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Transport errors are retryable (connection refused during a
		// restart, etc.).
		return nil, &retryableError{apiErr: fmt.Errorf("lppartd client: %w", err)}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &retryableError{apiErr: fmt.Errorf("lppartd client: read response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode}
		_ = json.Unmarshal(raw, &apiErr.Body) //lint:err best effort; body may be non-JSON
		if apiErr.Body.Err == "" {
			apiErr.Body.Err = http.StatusText(resp.StatusCode)
		}
		if retryable(resp.StatusCode) {
			return nil, &retryableError{apiErr: apiErr,
				retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		return nil, apiErr
	}
	res := &Result[T]{CacheHit: resp.Header.Get("X-Cache") == "hit", Attempts: attempt}
	if err := json.Unmarshal(raw, &res.Value); err != nil {
		return nil, fmt.Errorf("lppartd client: decode response: %w", err)
	}
	return res, nil
}
