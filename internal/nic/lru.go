package nic

import "scalerpc/internal/stats"

// lruCache is a fixed-capacity cache over uint64 keys used to model the
// NIC's on-chip state caches (QP context, WQE, MTT). Only presence matters;
// values are implicit. The implementation is an intrusive doubly-linked
// list over a map, O(1) per access.
//
// Replacement is randomized by default: under a round-robin access pattern
// over more QPs than the cache holds — exactly what a many-client RPC
// server produces — strict LRU collapses to a 0% hit rate the moment the
// working set exceeds capacity, whereas real NIC caches degrade gradually
// (the paper's Figure 1(b) slope from 10 to 800 clients). Random
// replacement yields the observed capacity/workingset hit ratio. Tests use
// strict LRU (rng == nil) for determinism of individual evictions.
type lruCache struct {
	capacity int
	entries  map[uint64]*lruNode
	head     *lruNode // most recent
	tail     *lruNode // least recent
	hits     uint64
	misses   uint64
	rng      *stats.RNG
	keys     []uint64 // dense key list for O(1) random victim choice
	keyPos   map[uint64]int
}

type lruNode struct {
	key        uint64
	prev, next *lruNode
}

// newLRU builds a cache with strict LRU replacement.
func newLRU(capacity int) *lruCache {
	if capacity <= 0 {
		panic("nic: lru capacity must be positive")
	}
	return &lruCache{capacity: capacity, entries: make(map[uint64]*lruNode, capacity)}
}

// newRandomCache builds a cache with randomized replacement.
func newRandomCache(capacity int, rng *stats.RNG) *lruCache {
	c := newLRU(capacity)
	c.rng = rng
	c.keyPos = make(map[uint64]int, capacity)
	return c
}

// Access touches key, returning true on hit. On miss the key is inserted,
// evicting a victim (LRU or random per policy) if the cache is full.
func (c *lruCache) Access(key uint64) bool {
	if n, ok := c.entries[key]; ok {
		c.hits++
		c.moveToFront(n)
		return true
	}
	c.misses++
	var n *lruNode
	if len(c.entries) >= c.capacity {
		// A full cache misses without allocating: the victim's node is
		// relabelled for the key that displaced it.
		if c.rng != nil {
			n = c.entries[c.keys[c.rng.Intn(len(c.keys))]]
		} else {
			n = c.tail
		}
		c.remove(n)
		n.key = key
	} else {
		n = &lruNode{key: key}
	}
	c.entries[key] = n
	c.pushFront(n)
	if c.rng != nil {
		c.keyPos[key] = len(c.keys)
		c.keys = append(c.keys, key)
	}
	return false
}

// remove deletes a node from all index structures.
func (c *lruCache) remove(n *lruNode) {
	c.unlink(n)
	delete(c.entries, n.key)
	if c.rng != nil {
		pos := c.keyPos[n.key]
		last := len(c.keys) - 1
		c.keys[pos] = c.keys[last]
		c.keyPos[c.keys[pos]] = pos
		c.keys = c.keys[:last]
		delete(c.keyPos, n.key)
	}
}

// Invalidate removes key if present.
func (c *lruCache) Invalidate(key uint64) {
	if n, ok := c.entries[key]; ok {
		c.remove(n)
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *lruCache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
