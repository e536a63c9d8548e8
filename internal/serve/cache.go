package serve

import (
	"container/list"
	"context"
	"sync"

	"lppart/internal/memostore"
)

// lruCache is a bounded most-recently-used cache of finished bytes keyed
// by content address: 200 response bodies under their storeKey and
// measurement records under system.MeasureKey and dse's sweep key. The
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

// measureTier is the system.Store one computation — a partition miss,
// a /v1/batch item or an explore or exact job — reads and writes its
// measurement records through: the server's tiers, counted on their own
// hit/miss/wait series so lppartd_cache_ops_total keeps counting
// requests only.
//
// Lookups coalesce cold measurements: a lookup that misses leases its
// key to the computation, so the computation measures, and a later
// lookup of a leased key waits until the lease ends, then reads the
// tiers again. A lease ends when its holder puts the key or returns
// (done). A waiter that still misses — its leader failed or was
// cancelled, or the record was evicted — takes the lease and measures
// itself; a waiter whose own ctx ends first reads a miss, so it fails as
// a computation whose deadline passed while measuring. A computation
// holding a lease never waits, so leases cannot deadlock, and every
// leader holds a worker slot, so every wait ends. A hit touches neither
// the lease map nor the heap.
//
// A measureTier belongs to one computation and is used from its
// goroutine only; the lease map it shares is guarded by s.leaseMu.
type measureTier struct {
	s    *Server
	ctx  context.Context
	held []memostore.Key // the keys this computation leases
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
	for {
		s.leaseMu.Lock()
		ch, leased := s.leases[key]
		if !leased || len(m.held) > 0 {
			if !leased {
				s.leases[key] = make(chan struct{})
				m.held = append(m.held, key)
			}
			s.leaseMu.Unlock()
			// The last leader may have put the record between the first
			// read and the lock.
			if b, ok := s.tierGet(key); ok {
				m.release(key)
				s.measureHit.Inc()
				return b, true, nil
			}
			s.measureMiss.Inc()
			return nil, false, nil
		}
		s.leaseMu.Unlock()
		if !waited {
			waited = true
			s.measureWait.Inc()
		}
		select {
		case <-ch:
		case <-m.ctx.Done():
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
			m.s.endLeases(k)
			return
		}
	}
}

// done ends every lease the computation still holds. Computations defer
// it, so a fault, a cancel or a panic never strands a waiter.
func (m *measureTier) done() {
	if len(m.held) > 0 {
		m.s.endLeases(m.held...)
		m.held = nil
	}
}

// endLeases removes the leases on keys and wakes their waiters.
func (s *Server) endLeases(keys ...memostore.Key) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, k := range keys {
		close(s.leases[k])
		delete(s.leases, k)
	}
}
