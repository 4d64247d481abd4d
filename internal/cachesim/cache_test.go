package cachesim

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets × 4 ways × 64 B = 1 KiB, DDIO budget 1 way.
	return New(Config{SizeBytes: 1024, Ways: 4, LineSize: 64, DDIOWays: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	_, m := c.CPURead(0, 64)
	if m != 1 {
		t.Fatalf("cold read misses = %d, want 1", m)
	}
	h, m := c.CPURead(0, 64)
	if h != 1 || m != 0 {
		t.Fatalf("warm read = %d hits %d misses, want 1,0", h, m)
	}
}

func TestMultiLineAccessCounts(t *testing.T) {
	c := small()
	h, m := c.CPURead(0, 256) // 4 lines
	if h != 0 || m != 4 {
		t.Fatalf("got %d/%d, want 0 hits 4 misses", h, m)
	}
	h, m = c.CPURead(32, 64) // straddles lines 0 and 1
	if h != 2 || m != 0 {
		t.Fatalf("straddling read: %d/%d, want 2 hits", h, m)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Fill set 0 (addresses with same set index: stride = sets*lineSize = 256).
	for i := uint64(0); i < 4; i++ {
		c.CPURead(i*256, 1)
	}
	// Touch line 0 so line at 256 becomes LRU.
	c.CPURead(0, 1)
	// Insert a 5th line: must evict addr 256.
	c.CPURead(4*256, 1)
	if !c.Contains(0) {
		t.Fatal("recently used line was evicted")
	}
	if c.Contains(256) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestWorkingSetFitsNoMisses(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, LineSize: 64, DDIOWays: 2})
	// 256 KiB working set inside a 1 MiB cache: after warmup, zero misses.
	warm := func() (hits, misses int) {
		for a := uint64(0); a < 256<<10; a += 64 {
			h, m := c.CPURead(a, 64)
			hits += h
			misses += m
		}
		return
	}
	warm()
	h, m := warm()
	if m != 0 {
		t.Fatalf("resident working set produced %d misses (hits %d)", m, h)
	}
}

func TestWorkingSetExceedsThrashes(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, LineSize: 64, DDIOWays: 2})
	// 4 MiB working set through a 1 MiB cache, sequential scan: ~every
	// access misses once warm (LRU worst case).
	scan := func() (misses int) {
		for a := uint64(0); a < 4<<20; a += 64 {
			_, m := c.CPURead(a, 64)
			misses += m
		}
		return
	}
	scan()
	m := scan()
	total := (4 << 20) / 64
	if float64(m)/float64(total) < 0.99 {
		t.Fatalf("oversized scan missed only %d/%d", m, total)
	}
}

func TestDMAWriteUpdateInPlace(t *testing.T) {
	c := small()
	c.CPURead(0, 64) // make line resident
	u, a := c.DMAWrite(0, 64)
	if u != 1 || a != 0 {
		t.Fatalf("DMA to resident line: updates=%d allocs=%d, want 1,0", u, a)
	}
}

func TestDMAWriteAllocate(t *testing.T) {
	c := small()
	u, a := c.DMAWrite(0, 64)
	if u != 0 || a != 1 {
		t.Fatalf("DMA to absent line: updates=%d allocs=%d, want 0,1", u, a)
	}
	if !c.Contains(0) {
		t.Fatal("write-allocated line not resident")
	}
}

func TestDDIOWayBudget(t *testing.T) {
	c := small() // 4 ways, DDIO budget 1
	// Fill set 0 with CPU data.
	for i := uint64(0); i < 4; i++ {
		c.CPURead(i*256, 1)
	}
	// Two DMA writes to new lines in the same set: the second must evict
	// the first (DDIO budget exhausted), never a second CPU line.
	c.DMAWrite(4*256, 64)
	before := c.Snapshot()
	c.DMAWrite(5*256, 64)
	after := c.Snapshot()
	if after.DMAEvictions != before.DMAEvictions+1 {
		t.Fatalf("second DMA alloc should evict the DDIO line: %+v", after)
	}
	if c.Contains(4 * 256) {
		t.Fatal("older DDIO line should have been displaced")
	}
	// Three of the four original CPU lines survive (one was displaced by
	// the first DMA alloc since the set was full).
	survivors := 0
	for i := uint64(0); i < 4; i++ {
		if c.Contains(i * 256) {
			survivors++
		}
	}
	if survivors < 3 {
		t.Fatalf("CPU lines displaced by DDIO beyond budget: %d/4 survive", survivors)
	}
}

func TestCPUReadAdoptsDDIOLine(t *testing.T) {
	c := small()
	for i := uint64(0); i < 4; i++ {
		c.CPURead(i*256, 1)
	}
	c.DMAWrite(4*256, 64) // DDIO line
	c.CPURead(4*256, 64)  // CPU adopts it
	// A further DMA alloc in this set now has no DDIO victim, so it evicts
	// the set LRU instead — the adopted line must survive (it is MRU).
	c.DMAWrite(5*256, 64)
	if !c.Contains(4 * 256) {
		t.Fatal("adopted line was evicted as if still DDIO")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := small()
	c.CPURead(0, 64)
	c.CPURead(0, 64)
	c.CPUWrite(64, 64)
	c.DMAWrite(128, 64)
	s := c.Snapshot()
	if s.CPUReadHits != 1 || s.CPUReadMisses != 1 {
		t.Fatalf("read stats %+v", s)
	}
	if s.CPUWriteMisses != 1 {
		t.Fatalf("write stats %+v", s)
	}
	if s.DMAAllocs != 1 {
		t.Fatalf("dma stats %+v", s)
	}
	if mr := s.MissRate(); mr != 0.5 {
		t.Fatalf("MissRate = %f, want 0.5", mr)
	}
	c.Reset()
	if c.Snapshot() != (Stats{}) {
		t.Fatal("Reset did not zero counters")
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := small()
	c.CPURead(0, 64)
	c.Flush()
	if c.Contains(0) {
		t.Fatal("line survived Flush")
	}
}

func TestSetRoundingPowerOfTwo(t *testing.T) {
	// 30 MiB, 20 ways, 64 B lines → 24576 sets → rounded to 16384.
	c := New(Config{SizeBytes: 30 << 20, Ways: 20, LineSize: 64, DDIOWays: 2})
	if c.SizeBytes() != 16384*20*64 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestPropertyReadAfterWriteAlwaysHits(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 16, Ways: 8, LineSize: 64, DDIOWays: 2})
	err := quick.Check(func(a uint32) bool {
		addr := uint64(a) % (1 << 24)
		c.CPUWrite(addr, 64)
		h, _ := c.CPURead(addr, 1)
		return h == 1
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResidencyNeverExceedsCapacity(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 12, Ways: 4, LineSize: 64, DDIOWays: 1})
	touched := map[uint64]bool{}
	q := NewRNGLike(99)
	for i := 0; i < 10000; i++ {
		addr := uint64(q.next()%(1<<20)) &^ 63
		c.CPURead(addr, 64)
		touched[addr] = true
	}
	resident := 0
	for a := range touched {
		if c.Contains(a) {
			resident++
		}
	}
	max := c.SizeBytes() / c.LineSize()
	if resident > max {
		t.Fatalf("resident lines %d exceed capacity %d", resident, max)
	}
}

// TestMRUHintMatchesReferenceScan replays a seeded mixed CPU/DMA trace on
// the hosts' default geometry (20 ways, 2 DDIO ways) through Cache and
// through refCache, which states the same replacement policy with a full
// way scan on every lookup and no MRU hint. The hint only accelerates
// lookups, so every counter must agree.
func TestMRUHintMatchesReferenceScan(t *testing.T) {
	cfg := Config{SizeBytes: 30 << 20, Ways: 20, LineSize: 64, DDIOWays: 2}
	c := New(cfg)
	sets := uint64(c.SizeBytes() / (cfg.Ways * cfg.LineSize))
	ref := newRefCache(int(sets), cfg.Ways, cfg.DDIOWays, cfg.LineSize)
	q := NewRNGLike(7)
	// Half the accesses go to a 256 KiB hot range that stays resident and
	// hits through the hint; the rest crowd 256 tags into 64 sets, so those
	// sets keep evicting and running out of DDIO ways.
	for i := 0; i < 100_000; i++ {
		r := q.next()
		addr := r >> 8 % (256 << 10)
		if r&1 == 1 {
			addr = (r>>8%64+r>>20%256*sets)*64 + r>>32%64
		}
		size := 1 + r>>40%256
		switch r >> 1 % 3 {
		case 0:
			c.CPURead(addr, size)
			ref.access(refRead, addr, size)
		case 1:
			c.CPUWrite(addr, size)
			ref.access(refWrite, addr, size)
		default:
			c.DMAWrite(addr, size)
			ref.access(refDMA, addr, size)
		}
	}
	if got := c.Snapshot(); got != ref.Stats {
		t.Fatalf("hinted cache %+v\nreference scan %+v", got, ref.Stats)
	}
	if s := ref.Stats; s.CPUReadHits == 0 || s.DMAUpdates == 0 || s.DMAEvictions == 0 || s.Evictions == s.DMAEvictions {
		t.Fatalf("trace did not exercise hits, updates and both eviction kinds: %+v", s)
	}
}

type refOp int

const (
	refRead refOp = iota
	refWrite
	refDMA
)

type refLine struct {
	tag, stamp  uint64
	valid, ddio bool
}

// refCache is Cache's replacement policy written out plainly: a slice of
// ways per set, searched in full on every access.
type refCache struct {
	Stats
	ways, ddioWays int
	lineSize       uint64
	sets           [][]refLine
	clock          uint64
}

func newRefCache(sets, ways, ddioWays, lineSize int) *refCache {
	r := &refCache{ways: ways, ddioWays: ddioWays, lineSize: uint64(lineSize), sets: make([][]refLine, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, ways)
	}
	return r
}

func (r *refCache) access(op refOp, addr, size uint64) {
	for line := addr / r.lineSize; line <= (addr+size-1)/r.lineSize; line++ {
		r.clock++
		set := r.sets[line%uint64(len(r.sets))]
		tag := line / uint64(len(r.sets))
		hit := -1
		for w, l := range set {
			if l.valid && l.tag == tag {
				hit = w
			}
		}
		if hit >= 0 {
			set[hit].stamp = r.clock
			switch op {
			case refRead:
				r.CPUReadHits++
				set[hit].ddio = false
			case refWrite:
				r.CPUWriteHits++
				set[hit].ddio = false
			case refDMA:
				r.DMAUpdates++
			}
			continue
		}
		// Victim: the first invalid way, else (for DMA with the set's DDIO
		// ways used up) the oldest DDIO line, else the least recent line.
		victim, lru, oldestDDIO, ddioLines := -1, 0, -1, 0
		for w, l := range set {
			switch {
			case !l.valid:
				if victim < 0 {
					victim = w
				}
				continue
			case l.stamp < set[lru].stamp || !set[lru].valid:
				lru = w
			}
			if l.ddio {
				ddioLines++
				if oldestDDIO < 0 || l.stamp < set[oldestDDIO].stamp {
					oldestDDIO = w
				}
			}
		}
		switch op {
		case refRead:
			r.CPUReadMisses++
		case refWrite:
			r.CPUWriteMisses++
		case refDMA:
			r.DMAAllocs++
		}
		if victim < 0 {
			victim = lru
			if op == refDMA && ddioLines >= r.ddioWays {
				victim = oldestDDIO
				r.DMAEvictions++
			}
			r.Evictions++
		}
		set[victim] = refLine{tag: tag, stamp: r.clock, valid: true, ddio: op == refDMA}
	}
}

// NewRNGLike is a tiny local PRNG to avoid an import cycle with stats.
type rngLike struct{ s uint64 }

func NewRNGLike(seed uint64) *rngLike { return &rngLike{s: seed} }
func (r *rngLike) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
