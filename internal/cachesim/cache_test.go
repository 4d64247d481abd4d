package cachesim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestMRUHintMatchesReferenceScan replays a seeded mixed CPU/DMA trace
// through Cache and through refCache, which states the same replacement
// policy with a full way scan on every lookup, no MRU hint and no packed set
// records. Each geometry (ways/DDIO ways) must agree with the reference on
// every call's return, on every counter, and on the residency of every
// touched line, across a Flush in the middle of the trace.
func TestMRUHintMatchesReferenceScan(t *testing.T) {
	for _, tc := range []struct {
		size, ways, ddioWays int
	}{
		{64 << 10, 4, 1},
		{256 << 10, 8, 2},
		{1 << 20, 16, 2},
		{30 << 20, 20, 2},               // the hosts' default geometry
		{1 << 20, MaxWays, MaxWays / 2}, // the way cap, half of it DDIO
	} {
		t.Run(fmt.Sprintf("%dways_%dddio", tc.ways, tc.ddioWays), func(t *testing.T) {
			cfg := Config{SizeBytes: tc.size, Ways: tc.ways, LineSize: 64, DDIOWays: tc.ddioWays}
			c := New(cfg)
			sets := uint64(c.SizeBytes() / (cfg.Ways * cfg.LineSize))
			ref := newRefCache(int(sets), cfg.Ways, cfg.DDIOWays, cfg.LineSize)
			touched := map[uint64]bool{}
			hot := uint64(c.SizeBytes() / 80)
			q := NewRNGLike(7)
			// Half the accesses go to a hot range an eightieth of the cache
			// that stays resident and hits through the hint; the rest crowd
			// 256 tags into 64 sets at registry-like addresses (from 64 GB),
			// so those sets keep evicting and running out of DDIO ways.
			const n = 100_000
			for i := 0; i < n; i++ {
				if i == n/2 {
					c.Flush()
					refFlush(ref)
					for line := range touched {
						if c.Contains(line * 64) {
							t.Fatalf("line %#x survived Flush", line*64)
						}
					}
				}
				r := q.next()
				addr := r >> 8 % hot
				if r&1 == 1 {
					addr = 64<<30 + (r>>8%64+r>>20%256*sets)*64 + r>>32%64
				}
				size := 1 + r>>40%256
				for line := addr / 64; line <= (addr+size-1)/64; line++ {
					touched[line] = true
				}
				if got, want := touchBoth(c, ref, refOp(r>>1%3), addr, size); got != want {
					t.Fatalf("access %d (op %d, addr %#x, size %d) returned %v, reference %v", i, r>>1%3, addr, size, got, want)
				}
			}
			if got := c.Snapshot(); got != ref.Stats {
				t.Fatalf("hinted cache %+v\nreference scan %+v", got, ref.Stats)
			}
			for line := range touched {
				if got, want := c.Contains(line*64), refContains(ref, line); got != want {
					t.Fatalf("line %#x resident %v, reference %v", line*64, got, want)
				}
			}
			if s := ref.Stats; s.CPUReadHits == 0 || s.DMAUpdates == 0 || s.DMAEvictions == 0 || s.Evictions == s.DMAEvictions {
				t.Fatalf("trace did not exercise hits, updates and both eviction kinds: %+v", s)
			}
		})
	}
}

// TestSetClockWrapMatchesReference drives a few sets of each geometry past
// three wraps of their 16-bit clock and checks every call's return, every
// counter and the final residency against refCache, whose 64-bit clock never
// wraps. Each set's first wrap comes while it holds fewer lines than it has
// ways, so a renumbering that ranked the unstamped ways would show; from it
// on every set runs a mix of CPU hits, DMA updates, misses and DDIO evictions
// over up to twice its ways, so a wrap that loses the order misses or evicts
// the wrong line.
func TestSetClockWrapMatchesReference(t *testing.T) {
	const touches = 3*math.MaxUint16 + 2000 // per driven set
	for _, tc := range []struct {
		size, ways, ddioWays int
	}{
		{1024, 4, 1},                    // 4 sets
		{30 << 20, 20, 2},               // the hosts' default geometry
		{1 << 20, MaxWays, MaxWays / 2}, // the way cap, half of it DDIO
	} {
		t.Run(fmt.Sprintf("%dways_%dddio", tc.ways, tc.ddioWays), func(t *testing.T) {
			cfg := Config{SizeBytes: tc.size, Ways: tc.ways, LineSize: 64, DDIOWays: tc.ddioWays}
			c := New(cfg)
			sets := uint64(c.SizeBytes() / (cfg.Ways * cfg.LineSize))
			ref := newRefCache(int(sets), cfg.Ways, cfg.DDIOWays, cfg.LineSize)
			driven := []uint64{0, 1, sets / 2, sets - 1}
			const tagBase = 1 << 12
			n := make([]int, len(driven))       // touches so far
			pool := make([]uint64, len(driven)) // tags in play: tagBase + [0, pool)
			q := NewRNGLike(11)
			for done := 0; done < len(driven); {
				r := q.next()
				i := int(r % uint64(len(driven)))
				if n[i] == touches {
					continue
				}
				if n[i]%256 == 0 {
					// A new phase of 256 touches. Until the first wrap, at
					// touch 1<<16, set i holds at most 1 + i(ways-2)/3
					// lines, from one line up to ways-1; the phase right
					// after it spans twice the ways, so the first evictions
					// follow the wrap at once.
					switch {
					case n[i] < 1<<16:
						pool[i] = 1 + r>>8%uint64(1+i*(cfg.Ways-2)/3)
					case n[i] == 1<<16:
						pool[i] = uint64(2 * cfg.Ways)
					default:
						pool[i] = 1 + r>>8%uint64(2*cfg.Ways)
					}
				}
				n[i]++
				if n[i] == touches {
					done++
				}
				line := (tagBase+r>>16%pool[i])*sets + driven[i]
				off := r >> 24 % 64
				addr, size := line*64+off, 1+r>>32%(64-off)
				if got, want := touchBoth(c, ref, refOp(r>>40%3), addr, size); got != want {
					t.Fatalf("set %d touch %d (addr %#x, size %d) returned %v, reference %v", driven[i], n[i], addr, size, got, want)
				}
			}
			if got := c.Snapshot(); got != ref.Stats {
				t.Fatalf("cache %+v\nreference %+v", got, ref.Stats)
			}
			for _, idx := range driven {
				for tag := uint64(0); tag < uint64(2*cfg.Ways); tag++ {
					line := (tagBase+tag)*sets + idx
					if got, want := c.Contains(line*64), refContains(ref, line); got != want {
						t.Fatalf("line %#x resident %v, reference %v", line*64, got, want)
					}
				}
			}
			if s := ref.Stats; s.CPUReadHits == 0 || s.DMAUpdates == 0 || s.DMAEvictions == 0 || s.Evictions == s.DMAEvictions {
				t.Fatalf("trace did not exercise hits, updates and both eviction kinds: %+v", s)
			}
		})
	}
}

// TestSetRecordLayout pins the record size the chunking relies on: a set is
// 128 bytes, so a 16-set chunk is 2 KB, a size class whose objects start on
// 128-byte boundaries, and every record sits on host cache lines of its own.
func TestSetRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(set{}); got != 128 {
		t.Fatalf("set record is %d bytes, want 128", got)
	}
	if got := unsafe.Sizeof(chunk{}); got != 2048 {
		t.Fatalf("chunk is %d bytes, want 2048", got)
	}
}

// touchBoth applies op to c and to ref and returns the pair c's call
// returned and the pair by which the reference's counters moved.
func touchBoth(c *Cache, ref *refCache, op refOp, addr, size uint64) (got, want [2]int) {
	before := ref.Stats
	ref.access(op, addr, size)
	switch op {
	case refRead:
		got[0], got[1] = c.CPURead(addr, size)
		want = [2]int{int(ref.CPUReadHits - before.CPUReadHits), int(ref.CPUReadMisses - before.CPUReadMisses)}
	case refWrite:
		got[0], got[1] = c.CPUWrite(addr, size)
		want = [2]int{int(ref.CPUWriteHits - before.CPUWriteHits), int(ref.CPUWriteMisses - before.CPUWriteMisses)}
	default:
		got[0], got[1] = c.DMAWrite(addr, size)
		want = [2]int{int(ref.DMAUpdates - before.DMAUpdates), int(ref.DMAAllocs - before.DMAAllocs)}
	}
	return got, want
}

// refContains reports whether refCache holds line.
func refContains(r *refCache, line uint64) bool {
	tag := line / uint64(len(r.sets))
	for _, l := range r.sets[line%uint64(len(r.sets))] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// refFlush invalidates every line of r, as Cache.Flush does.
func refFlush(r *refCache) {
	for _, set := range r.sets {
		clear(set)
	}
}

func TestNewPanicsPastMaxWays(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxWays") {
			t.Fatalf("New with %d ways: recovered %v, want a panic naming MaxWays", MaxWays+1, r)
		}
	}()
	New(Config{SizeBytes: 1 << 20, Ways: MaxWays + 1, LineSize: 64, DDIOWays: 2})
}

// TestTagPastThirtyTwoBitsPanics: tags are stored in 32 bits, so a line
// whose tag does not fit must panic instead of aliasing another line.
func TestTagPastThirtyTwoBitsPanics(t *testing.T) {
	// One set: a line's tag is its line number + 1.
	cfg := Config{SizeBytes: 64, Ways: 1, LineSize: 64, DDIOWays: 1}
	lastOK := uint64(math.MaxUint32-1) * 64
	for _, op := range []struct {
		name  string
		touch func(c *Cache, addr, size uint64)
	}{
		{"CPURead", func(c *Cache, a, n uint64) { c.CPURead(a, n) }},
		{"CPUWrite", func(c *Cache, a, n uint64) { c.CPUWrite(a, n) }},
		{"DMAWrite", func(c *Cache, a, n uint64) { c.DMAWrite(a, n) }},
	} {
		c := New(cfg)
		op.touch(c, lastOK, 64)
		if !c.Contains(lastOK) {
			t.Fatalf("%s: highest 32-bit tag not resident", op.name)
		}
		for _, a := range []struct{ addr, size uint64 }{{lastOK + 64, 1}, {lastOK, 65}, {1 << 40, 64}} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "32-bit tag range") {
						t.Fatalf("%s(%#x, %d): recovered %v, want a 32-bit tag panic", op.name, a.addr, a.size, r)
					}
				}()
				op.touch(c, a.addr, a.size)
			}()
			if c.Contains(a.addr + a.size - 1) {
				t.Fatalf("%s: line past the tag range reads resident", op.name)
			}
		}
		if !c.Contains(lastOK) {
			t.Fatalf("%s: a rejected touch evicted the resident line", op.name)
		}
	}
}

// TestAllocBudgetCacheTouch: set records are allocated one chunk at a time
// on first touch, so a touch into a touched chunk allocates nothing, a new
// chunk's first touch allocates once, and looking up an untouched set never
// allocates.
func TestAllocBudgetCacheTouch(t *testing.T) {
	c := New(Config{SizeBytes: 30 << 20, Ways: 20, LineSize: 64, DDIOWays: 2})
	const chunkBytes = chunkSets * 64
	if a := testing.AllocsPerRun(100, func() {
		c.Contains(5 * chunkBytes)
	}); a != 0 {
		t.Fatalf("Contains on an untouched set: %v allocs, want 0", a)
	}
	for i, ch := range c.chunks {
		if ch != nil {
			t.Fatalf("Contains allocated chunk %d", i)
		}
	}
	c.CPURead(0, chunkBytes)
	var i uint64
	if a := testing.AllocsPerRun(100, func() {
		i++
		c.CPURead(i%chunkSets*64, 64)
		c.CPUWrite((i+1)%chunkSets*64, 64)
		c.DMAWrite((i+2)%chunkSets*64, 128)
		c.CPURead(uint64(c.SizeBytes())/20*i, 64) // same set 0, new tags: misses and evictions
	}); a != 0 {
		t.Fatalf("touches into a touched chunk: %v allocs, want 0", a)
	}
	next := uint64(1)
	for _, op := range []func(addr uint64){
		func(a uint64) { c.CPURead(a, 64) },
		func(a uint64) { c.CPUWrite(a, 64) },
		func(a uint64) { c.DMAWrite(a, 64) },
		func(a uint64) { c.DMAWrite(a, chunkBytes) }, // every set of the chunk
	} {
		if a := testing.AllocsPerRun(100, func() {
			op(next * chunkBytes)
			next++
		}); a != 1 {
			t.Fatalf("first touch of a chunk: %v allocs, want 1", a)
		}
	}
	c.Flush()
	for i, ch := range c.chunks {
		if ch != nil {
			t.Fatalf("Flush kept chunk %d", i)
		}
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
