package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanLog keeps a traced phase's spans in memory until the run writes
// them out. Spans are recorded by the benchmark around its own calls
// into each layer. A nil *spanLog records nothing, so traced and
// untraced ops run the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent indexes the enclosing span, -1 for an
// op's root span and for attribution calls, which run outside any op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// record appends a finished span and returns its index.
func (l *spanLog) record(name string, op, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

// begin opens a span; end closes it.
func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Now()
	return l.record(name, op, parent, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// run times fn as a span.
func (l *spanLog) run(name string, op, parent int, fn func() error) error {
	id := l.begin(name, op, parent)
	err := fn()
	l.end(id)
	return err
}

// selfMs sums, per span name, each span's self time in milliseconds:
// its duration minus the part its child spans cover.
func (l *spanLog) selfMs() map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range l.spans {
		out[s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
