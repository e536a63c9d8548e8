package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"lppart/internal/memostore"
)

// lruCache is a bounded most-recently-used cache of finished bytes keyed
// by content address: 200 response bodies under their storeKey and
// measurement records under the keys system.Measure derives. The
// key derivations are domain-separated hashes, so the kinds never
// collide.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent; values are *lruEntry
	items map[memostore.Key]*list.Element
}

type lruEntry struct {
	key memostore.Key
	val []byte
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[memostore.Key]*list.Element)}
}

// get returns the cached bytes and refreshes their recency.
func (c *lruCache) get(key memostore.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) an entry and evicts the least recently used
// entry past capacity. It reports how many entries were evicted.
func (c *lruCache) add(key memostore.Key, val []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return 0
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
		evicted++
	}
	return evicted
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// tierGet is the server's one lookup ladder: the LRU, then the
// persistent store, whose hit warms the LRU. A store read error reads as
// a miss, so the caller recomputes instead of failing.
func (s *Server) tierGet(key memostore.Key) ([]byte, bool) {
	if b, ok := s.cache.get(key); ok {
		return b, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	b, ok, err := s.cfg.Store.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	s.cacheEvic.Add(int64(s.cache.add(key, b)))
	return b, true
}

// tierPut adds val to the LRU and writes it through to the persistent
// store. Callers swallow the store's error (ErrReadOnly on a store
// opened read-only, ErrClosed after shutdown): persistence accelerates,
// it must never fail a request or a job.
func (s *Server) tierPut(key memostore.Key, val []byte) error {
	s.cacheEvic.Add(int64(s.cache.add(key, val)))
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Put(key, val)
}

// lease is one entry of the server's in-flight table (Server.leases):
// a key whose bytes one computation is producing, either a response
// body under its storeKey or a measurement record. Its holder ends it
// with endLease, which sets res before it closes done.
type lease struct {
	done chan struct{}
	res  *result // a result lease's finished response; nil for a record lease
}

// errLeased is takeOrWait's answer to a caller that may not wait.
var errLeased = errors.New("serve: key leased to another computation")

// takeOrWait is the in-flight table's one step. If no computation holds
// key's lease, the caller takes it and gets nil: it produces the key's
// bytes and ends the lease with endLease. Otherwise the caller waits
// until the holder ends the lease and gets the ended lease, or gets
// ctx's error if ctx ends first. A non-nil mayWait is asked before each
// wait; if it refuses, the caller gets errLeased at once.
func (s *Server) takeOrWait(ctx context.Context, key memostore.Key, mayWait func() bool) (*lease, error) {
	s.leaseMu.Lock()
	l, held := s.leases[key]
	if !held {
		s.leases[key] = &lease{done: make(chan struct{})}
	}
	s.leaseMu.Unlock()
	if !held {
		return nil, nil
	}
	if mayWait != nil && !mayWait() {
		return nil, errLeased
	}
	select {
	case <-l.done:
		return l, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// endLease ends the lease on key with res and wakes its waiters.
func (s *Server) endLease(key memostore.Key, res *result) {
	s.leaseMu.Lock()
	l := s.leases[key]
	delete(s.leases, key)
	s.leaseMu.Unlock()
	l.res = res
	close(l.done)
}

// measureTier is the system.Store one computation — a partition miss,
// a /v1/batch item or an explore or exact job — reads and writes its
// measurement records through, and /v1/sweep writes its measurement
// record through: the server's tiers, counted on their own
// hit/miss/wait series so lppartd_cache_ops_total keeps counting
// requests only.
//
// Lookups coalesce cold measurements on record leases: a lookup that
// misses leases its key to the computation, so the computation
// measures, and a later lookup of a leased key waits until the lease
// ends, then reads the tiers again. A lease ends when its holder puts
// the key or returns (done). A waiter that still misses — its leader
// failed or was cancelled, or the record was evicted — takes the lease
// and measures itself; a waiter whose own ctx ends first reads a miss,
// so it fails as a computation whose deadline passed while measuring.
// A holder of a record lease never waits, and every holder holds a
// worker slot, so the waits run request → result holder → record
// holder and always end. A hit touches neither the lease table nor the
// heap.
//
// A measureTier belongs to one computation and is used from its
// goroutine only.
type measureTier struct {
	s    *Server
	ctx  context.Context
	held []memostore.Key // the record keys this computation leases
}

// newMeasureTier returns the tier of one computation running under ctx.
// The computation must defer done.
func (s *Server) newMeasureTier(ctx context.Context) *measureTier {
	return &measureTier{s: s, ctx: ctx}
}

func (m *measureTier) Get(key memostore.Key) ([]byte, bool, error) {
	if b, ok := m.s.tierGet(key); ok {
		m.s.measureHit.Inc()
		return b, true, nil
	}
	return m.await(key)
}

// await is a lookup's miss path: it leases key, or waits for the
// computation that leases it.
func (m *measureTier) await(key memostore.Key) ([]byte, bool, error) {
	s := m.s
	waited := false
	mayWait := func() bool {
		if len(m.held) > 0 {
			return false // a holder of a record lease never waits
		}
		if !waited {
			waited = true
			s.measureWait.Inc()
		}
		return true
	}
	for {
		l, err := s.takeOrWait(m.ctx, key, mayWait)
		if err != nil {
			s.measureMiss.Inc()
			return nil, false, nil
		}
		if l == nil {
			m.held = append(m.held, key)
			// The last holder may have put the record between the first
			// read and the take.
			if b, ok := s.tierGet(key); ok {
				m.release(key)
				s.measureHit.Inc()
				return b, true, nil
			}
			s.measureMiss.Inc()
			return nil, false, nil
		}
		if b, ok := s.tierGet(key); ok {
			s.measureHit.Inc()
			return b, true, nil
		}
	}
}

// Put writes the record through the tiers and ends the computation's
// lease on key. A computation whose ctx has ended writes nothing: a
// cancelled leader is a failed one, and its waiters measure themselves.
func (m *measureTier) Put(key memostore.Key, val []byte) error {
	defer m.release(key)
	if err := m.ctx.Err(); err != nil {
		return err
	}
	return m.s.tierPut(key, val)
}

// release ends the computation's lease on key, if it holds one.
func (m *measureTier) release(key memostore.Key) {
	for i, k := range m.held {
		if k == key {
			m.held = append(m.held[:i], m.held[i+1:]...)
			m.s.endLease(k, nil)
			return
		}
	}
}

// done ends every lease the computation still holds. Computations defer
// it, so a fault, a cancel or a panic never strands a waiter.
func (m *measureTier) done() {
	for _, k := range m.held {
		m.s.endLease(k, nil)
	}
	m.held = nil
}
