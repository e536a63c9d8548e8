package serve

import (
	"container/list"
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

// measureTier is the system.Store that partition misses and jobs read
// and write their measurement records through: the server's tiers,
// counted on their own hit/miss series so lppartd_cache_ops_total keeps
// counting requests only.
type measureTier struct{ s *Server }

func (m measureTier) Get(key memostore.Key) ([]byte, bool, error) {
	b, ok := m.s.tierGet(key)
	if ok {
		m.s.measureHit.Inc()
	} else {
		m.s.measureMiss.Inc()
	}
	return b, ok, nil
}

func (m measureTier) Put(key memostore.Key, val []byte) error {
	return m.s.tierPut(key, val)
}
