package nic

import (
	"testing"
	"testing/quick"

	"scalerpc/internal/stats"
)

func TestLRUHitMiss(t *testing.T) {
	c := newLRU(2)
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("warm access missed")
	}
	c.Access(2)
	c.Access(3) // evicts 1 (LRU)
	if c.entries[1] != nil {
		t.Fatal("LRU victim survived")
	}
	if c.entries[2] == nil || c.entries[3] == nil {
		t.Fatal("recent entries evicted")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	c := newLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 2 becomes LRU
	c.Access(3)
	if c.entries[2] != nil {
		t.Fatal("LRU entry 2 survived")
	}
	if c.entries[1] == nil {
		t.Fatal("MRU entry 1 evicted")
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRU(4)
	c.Access(7)
	c.Invalidate(7)
	if c.entries[7] != nil {
		t.Fatal("invalidate failed")
	}
	c.Invalidate(99) // absent: no-op
	if len(c.entries) != 0 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

func TestLRUHitRate(t *testing.T) {
	c := newLRU(8)
	for i := uint64(0); i < 8; i++ {
		c.Access(i)
	}
	for i := uint64(0); i < 8; i++ {
		c.Access(i)
	}
	if hr := c.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %f, want 0.5", hr)
	}
}

func TestRandomCacheNeverExceedsCapacity(t *testing.T) {
	rng := stats.NewRNG(3)
	c := newRandomCache(16, rng)
	for i := uint64(0); i < 10000; i++ {
		c.Access(i % 97)
	}
	if len(c.entries) > 16 {
		t.Fatalf("Len = %d > capacity", len(c.entries))
	}
	// Index structures stay consistent.
	if len(c.keys) != len(c.entries) || len(c.keyPos) != len(c.entries) {
		t.Fatalf("index desync: keys=%d pos=%d entries=%d", len(c.keys), len(c.keyPos), len(c.entries))
	}
}

func TestRandomCacheGradualDegradation(t *testing.T) {
	// Cycling over 2× capacity: random replacement must keep a
	// substantially nonzero hit rate (strict LRU would be exactly 0).
	rng := stats.NewRNG(5)
	c := newRandomCache(64, rng)
	for round := 0; round < 200; round++ {
		for k := uint64(0); k < 128; k++ {
			c.Access(k)
		}
	}
	hr := c.HitRate()
	if hr < 0.15 || hr > 0.6 {
		t.Fatalf("random-replacement hit rate = %.3f, want mid-range", hr)
	}
	lru := newLRU(64)
	for round := 0; round < 200; round++ {
		for k := uint64(0); k < 128; k++ {
			lru.Access(k)
		}
	}
	if lru.HitRate() != 0 {
		t.Fatalf("strict LRU cycling hit rate = %.3f, want 0", lru.HitRate())
	}
}

func TestRandomCacheInvalidateKeepsIndex(t *testing.T) {
	rng := stats.NewRNG(9)
	c := newRandomCache(8, rng)
	for i := uint64(0); i < 8; i++ {
		c.Access(i)
	}
	c.Invalidate(3)
	c.Invalidate(0)
	if len(c.entries) != 6 || len(c.keys) != 6 {
		t.Fatalf("Len=%d keys=%d", len(c.entries), len(c.keys))
	}
	// Every remaining key must be findable via the dense index.
	for _, k := range c.keys {
		if c.keyPos[k] >= len(c.keys) || c.keys[c.keyPos[k]] != k {
			t.Fatalf("index broken for key %d", k)
		}
	}
}

func TestPropertyCachesAgreeOnMembershipAfterAccess(t *testing.T) {
	// Whatever the policy, an Access(k) must leave k resident.
	err := quick.Check(func(seed uint64, keys []uint16) bool {
		rng := stats.NewRNG(seed)
		c := newRandomCache(4, rng)
		l := newLRU(4)
		for _, k := range keys {
			c.Access(uint64(k))
			l.Access(uint64(k))
			if c.entries[uint64(k)] == nil || l.entries[uint64(k)] == nil {
				return false
			}
		}
		return len(c.entries) <= 4 && len(l.entries) <= 4
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetLRUMiss pins the miss path of a full cache at zero
// allocations under both replacement policies: the victim's node carries
// the new key. A many-client server misses on every QPC and WQE lookup past
// the cache's capacity, so a node per miss was the NIC model's largest
// allocation site.
func TestAllocBudgetLRUMiss(t *testing.T) {
	for name, c := range map[string]*lruCache{
		"lru":    newLRU(64),
		"random": newRandomCache(64, stats.NewRNG(1)),
	} {
		key := uint64(0)
		miss := func() {
			key++
			if c.Access(key) {
				t.Fatalf("%s: key %d hit", name, key)
			}
		}
		for i := 0; i < 1024; i++ {
			miss()
		}
		if got := testing.AllocsPerRun(2000, miss); got != 0 {
			t.Errorf("%s: %v allocs per miss on a full cache, want 0", name, got)
		}
		if len(c.entries) != 64 {
			t.Errorf("%s: %d resident entries, want 64", name, len(c.entries))
		}
	}
}
