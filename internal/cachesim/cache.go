// Package cachesim implements a set-associative last-level-cache simulator
// with an Intel DDIO-style DMA write path.
//
// The model distinguishes two agents:
//
//   - CPU accesses (Read/Write) may allocate in any way of a set.
//   - DMA writes from the NIC follow DDIO: if the target line is already
//     resident it is updated in place ("Write Update"); otherwise the line
//     is allocated ("Write Allocate"), but DDIO-allocated lines may occupy
//     at most DDIOWays ways of each set — the "10% of the LLC" restriction
//     the paper cites from the Intel DDIO primer. When that budget is
//     exhausted the allocation evicts the oldest DDIO line of the set,
//     which is exactly the churn that shows up as PCIeItoM traffic and CPU
//     read misses in Figures 3(b) and 10.
//
// A CPU read hit on a DDIO-allocated line "adopts" it: the line is then
// ordinary cached data and no longer counts against the DDIO budget.
package cachesim

import (
	"fmt"
	"math"
	"math/bits"

	"scalerpc/internal/telemetry"
)

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	CPUReadHits    uint64
	CPUReadMisses  uint64
	CPUWriteHits   uint64
	CPUWriteMisses uint64
	DMAUpdates     uint64 // DMA write hit: in-place update (Write Update)
	DMAAllocs      uint64 // DMA write miss: Write Allocate
	DMAEvictions   uint64 // DDIO allocations that displaced another DDIO line
	Evictions      uint64 // all line replacements
}

// MissRate returns the CPU read miss ratio in [0,1].
func (s Stats) MissRate() float64 {
	total := s.CPUReadHits + s.CPUReadMisses
	if total == 0 {
		return 0
	}
	return float64(s.CPUReadMisses) / float64(total)
}

// MaxWays is the largest associativity a set record holds; New panics past
// it.
const MaxWays = 20

// chunkSets set records are allocated together, on the first touch of any
// of them.
const (
	chunkShift = 4
	chunkSets  = 1 << chunkShift
)

// set is one cache set. Only Flush invalidates, and it drops whole records,
// so the valid ways are always the prefix [0, valid) and a miss with room
// takes way valid. The record is 128 bytes, so a chunk fills its 2 KB size
// class and each record starts on a host cache line; the fields an MRU hit
// reads come first. A per-way owner tag for miss attribution would grow the
// record past 128 bytes.
type set struct {
	// mru is the last way touched. Poll loops touch the same handful of
	// lines over and over; checking the hinted way first turns the common
	// lookup into one compare instead of a way scan. Purely an
	// accelerator: hit/miss/eviction decisions are unchanged.
	mru    uint8
	valid  uint8           // number of valid ways
	clock  uint16          // the set's last stamp; see stamp
	ddio   uint32          // bit w: way w was allocated by DMA and not yet touched by the CPU
	tags   [MaxWays]uint32 // tag+1; 0 means invalid
	stamps [MaxWays]uint16 // the set's clock at each way's last touch
}

type chunk [chunkSets]set

// Cache is a set-associative LRU cache. It is not safe for concurrent use;
// in the simulator all accesses happen on the single scheduler goroutine.
//
// Each set is one record (tags, stamps, clock, DDIO bits, valid count, MRU
// way), so a touch reads one record. Records live in chunks of chunkSets
// allocated on first touch: a run touches a small fraction of a host's
// sets, and untouched ones hold no memory.
//
// Replacement is LRU by a 16-bit clock per set that stamps every touch of
// the set. Stamps are only compared within their set, so the set's own
// clock orders them as a cache-wide one would. A hit only restamps its way,
// so it stays O(1) beyond the tag lookup; per-set recency ranks would make
// every non-MRU hit re-rank the set.
type Cache struct {
	Stats
	lineSize uint64
	sets     uint64
	ways     int
	ddioWays int
	// linePow2/lineShift: fast path for the (universal) power-of-two line
	// size; setShift is always valid since the set count is a power of two.
	linePow2  bool
	lineShift uint
	setShift  uint
	allWays   uint32   // mask of ways [0, ways)
	chunks    []*chunk // nil until one of the chunk's sets is touched
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity, at most MaxWays
	LineSize  int // bytes per line (typically 64)
	DDIOWays  int // max ways per set occupied by unread DMA data
}

// New builds a cache. Size must be divisible by Ways*LineSize; the set
// count is rounded down to a power of two for cheap indexing.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cachesim: invalid config")
	}
	if cfg.Ways > MaxWays {
		panic(fmt.Sprintf("cachesim: %d ways exceed MaxWays (%d)", cfg.Ways, MaxWays))
	}
	if cfg.DDIOWays <= 0 || cfg.DDIOWays > cfg.Ways {
		panic(fmt.Sprintf("cachesim: DDIOWays %d out of range (ways=%d)", cfg.DDIOWays, cfg.Ways))
	}
	sets := uint64(cfg.SizeBytes / (cfg.Ways * cfg.LineSize))
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	c := &Cache{
		lineSize: uint64(cfg.LineSize),
		sets:     sets,
		ways:     cfg.Ways,
		ddioWays: cfg.DDIOWays,
		setShift: uint(bits.TrailingZeros64(sets)),
		allWays:  1<<cfg.Ways - 1,
		chunks:   make([]*chunk, (sets+chunkSets-1)>>chunkShift),
	}
	if c.lineSize&(c.lineSize-1) == 0 {
		c.linePow2 = true
		c.lineShift = uint(bits.TrailingZeros64(c.lineSize))
	}
	return c
}

// SizeBytes returns the effective capacity after set rounding.
func (c *Cache) SizeBytes() int { return int(c.sets) * c.ways * int(c.lineSize) }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return int(c.lineSize) }

func (c *Cache) lineNo(addr uint64) uint64 {
	if c.linePow2 {
		return addr >> c.lineShift
	}
	return addr / c.lineSize
}

// checkTag panics if lineNo's tag does not fit in 32 bits, rather than
// alias another line. Tags grow with the line number, so checking an
// access's last line covers all of it.
func (c *Cache) checkTag(lineNo uint64) {
	if lineNo>>c.setShift >= math.MaxUint32 {
		tagOverflow(lineNo)
	}
}

// tagOverflow is checkTag's panic, kept out of line so checkTag inlines.
//
//go:noinline
func tagOverflow(lineNo uint64) {
	panic(fmt.Sprintf("cachesim: line %#x is past the 32-bit tag range", lineNo))
}

// setOf returns the record of lineNo's set, allocating its chunk on first
// touch, and the line's tag (tag+1, so 0 stays "invalid").
func (c *Cache) setOf(lineNo uint64) (*set, uint32) {
	idx := lineNo & (c.sets - 1)
	ch := c.chunks[idx>>chunkShift]
	if ch == nil {
		ch = new(chunk)
		c.chunks[idx>>chunkShift] = ch
	}
	return &ch[idx&(chunkSets-1)], uint32(lineNo>>c.setShift + 1)
}

// lookup returns the way holding tag, or -1. The MRU hint is checked
// first; on a scan hit the hint is refreshed.
func (s *set) lookup(tag uint32) int {
	if m := s.mru; s.tags[m] == tag {
		return int(m)
	}
	for w, t := range s.tags[:s.valid] {
		if t == tag {
			s.mru = uint8(w)
			return w
		}
	}
	return -1
}

// stamp advances the set's clock and returns it, renumbering the set first
// if the clock is about to wrap.
func (s *set) stamp() uint16 {
	if s.clock == math.MaxUint16 {
		s.renumber()
	}
	s.clock++
	return s.clock
}

// renumber restamps the valid ways 1..valid in their current order and sets
// the clock to valid, so the next stamp is above every way's. The ways past
// valid have never been stamped and are left alone. It runs once every
// ~65 500 touches of a set, so the quadratic ranking costs nothing; it is
// kept out of line so stamp inlines.
//
//go:noinline
func (s *set) renumber() {
	old := s.stamps
	for w, st := range old[:s.valid] {
		rank := uint16(1)
		for _, o := range old[:s.valid] {
			if o < st {
				rank++
			}
		}
		s.stamps[w] = rank
	}
	s.clock = uint16(s.valid)
}

// oldest returns the way with the smallest stamp among the ways in mask.
// Stamps are unique within a set, so there are no ties, and all are below
// MaxUint16 here: a set whose clock reached it renumbers in stamp before its
// miss looks for a victim.
func (s *set) oldest(mask uint32) int {
	best, bestStamp := 0, uint16(math.MaxUint16)
	for ; mask != 0; mask &= mask - 1 {
		w := bits.TrailingZeros32(mask)
		if st := s.stamps[w]; st < bestStamp {
			best, bestStamp = w, st
		}
	}
	return best
}

// miss installs tag in s with stamp st. It takes the lowest invalid
// way; else, for a DDIO write (Write Allocate) whose set already holds
// DDIOWays DMA lines, the oldest of those; else the set's LRU way.
func (c *Cache) miss(s *set, tag uint32, st uint16, dma bool) {
	var w int
	switch {
	case int(s.valid) < c.ways:
		w = int(s.valid)
		s.valid++
	case dma && bits.OnesCount32(s.ddio) >= c.ddioWays:
		w = s.oldest(s.ddio)
		c.DMAEvictions++
		c.Evictions++
	default:
		w = s.oldest(c.allWays)
		c.Evictions++
	}
	s.tags[w], s.stamps[w], s.mru = tag, st, uint8(w)
	if dma {
		s.ddio |= 1 << w
	} else {
		s.ddio &^= 1 << w
	}
}

// cpu touches every line of [addr, addr+size) as CPU loads or stores. A hit
// restamps its way and adopts a DDIO line as ordinary data.
func (c *Cache) cpu(addr, size uint64) (hits, misses int) {
	if size == 0 {
		return
	}
	first, last := c.lineNo(addr), c.lineNo(addr+size-1)
	c.checkTag(last)
	for lineNo := first; lineNo <= last; lineNo++ {
		s, tag := c.setOf(lineNo)
		st := s.stamp()
		if w := s.lookup(tag); w >= 0 {
			s.stamps[w] = st
			s.ddio &^= 1 << w
			hits++
			continue
		}
		c.miss(s, tag, st, false)
		misses++
	}
	return hits, misses
}

// CPURead touches [addr, addr+size) as CPU loads and returns the number of
// lines that hit and missed.
func (c *Cache) CPURead(addr, size uint64) (hits, misses int) {
	hits, misses = c.cpu(addr, size)
	c.CPUReadHits += uint64(hits)
	c.CPUReadMisses += uint64(misses)
	return hits, misses
}

// CPUWrite touches [addr, addr+size) as CPU stores (write-allocate policy).
func (c *Cache) CPUWrite(addr, size uint64) (hits, misses int) {
	hits, misses = c.cpu(addr, size)
	c.CPUWriteHits += uint64(hits)
	c.CPUWriteMisses += uint64(misses)
	return hits, misses
}

// DMAWrite performs a DDIO write of [addr, addr+size) and returns how many
// lines were updated in place versus write-allocated.
func (c *Cache) DMAWrite(addr, size uint64) (updates, allocs int) {
	if size == 0 {
		return
	}
	first, last := c.lineNo(addr), c.lineNo(addr+size-1)
	c.checkTag(last)
	for lineNo := first; lineNo <= last; lineNo++ {
		s, tag := c.setOf(lineNo)
		st := s.stamp()
		if w := s.lookup(tag); w >= 0 {
			// Write Update: in-place, keeps current DDIO status.
			s.stamps[w] = st
			updates++
			continue
		}
		c.miss(s, tag, st, true)
		allocs++
	}
	c.DMAUpdates += uint64(updates)
	c.DMAAllocs += uint64(allocs)
	return updates, allocs
}

// Contains reports whether the line holding addr is resident (no LRU touch).
// An untouched set stays unallocated.
func (c *Cache) Contains(addr uint64) bool {
	lineNo := c.lineNo(addr)
	if lineNo>>c.setShift >= math.MaxUint32 {
		return false // never touched: checkTag would have panicked
	}
	idx := lineNo & (c.sets - 1)
	ch := c.chunks[idx>>chunkShift]
	return ch != nil && ch[idx&(chunkSets-1)].lookup(uint32(lineNo>>c.setShift+1)) >= 0
}

// Flush invalidates the whole cache but keeps statistics. It drops every
// set record; the next touch of a set allocates a fresh one.
func (c *Cache) Flush() { clear(c.chunks) }

// Reset zeroes the counters.
func (c *Cache) Reset() { c.Stats = Stats{} }

// Snapshot returns a copy of the counters.
func (c *Cache) Snapshot() Stats { return c.Stats }

// Register publishes the cache counters into a telemetry scope
// (conventionally "llc<hostID>"). The embedded Stats struct remains the
// storage; the registry observes the fields in place.
func (c *Cache) Register(sc telemetry.Scope) {
	sc.CounterVar("cpu.read.hit", &c.CPUReadHits)
	sc.CounterVar("cpu.read.miss", &c.CPUReadMisses)
	sc.CounterVar("cpu.write.hit", &c.CPUWriteHits)
	sc.CounterVar("cpu.write.miss", &c.CPUWriteMisses)
	sc.CounterVar("dma.update", &c.DMAUpdates)
	sc.CounterVar("dma.alloc", &c.DMAAllocs)
	sc.CounterVar("dma.evict", &c.DMAEvictions)
	sc.CounterVar("evictions", &c.Evictions)
}
