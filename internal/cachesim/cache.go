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

// Cache is a set-associative LRU cache. It is not safe for concurrent use;
// in the simulator all accesses happen on the single scheduler goroutine.
//
// Line state is stored structure-of-arrays: tag lookups — the hot operation
// of every simulated memory touch — scan a contiguous run of 8-byte tags
// instead of striding over a struct array.
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
	tags      []uint64 // tag+1; 0 means invalid
	stamps    []uint64 // per-set LRU clock value at last touch
	ddio      []bool   // allocated by DMA and not yet read by the CPU
	// mru caches the last way touched per set. Poll loops touch the same
	// handful of lines over and over; checking the hinted way first turns
	// the common lookup into one compare instead of a full way scan. Purely
	// an accelerator: hit/miss/eviction decisions are unchanged.
	mru   []int32
	clock uint64
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineSize  int // bytes per line (typically 64)
	DDIOWays  int // max ways per set occupied by unread DMA data
}

// New builds a cache. Size must be divisible by Ways*LineSize; the set
// count is rounded down to a power of two for cheap indexing.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cachesim: invalid config")
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
	n := int(sets) * cfg.Ways
	c := &Cache{
		lineSize: uint64(cfg.LineSize),
		sets:     sets,
		ways:     cfg.Ways,
		ddioWays: cfg.DDIOWays,
		setShift: uint(bits.TrailingZeros64(sets)),
		tags:     make([]uint64, n),
		stamps:   make([]uint64, n),
		ddio:     make([]bool, n),
		mru:      make([]int32, sets),
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

// setOf maps a line number to its set and the line's tag (tag+1, so 0
// stays "invalid"). The set's ways start at set*ways in the SoA arrays.
func (c *Cache) setOf(lineNo uint64) (set int, tag uint64) {
	return int(lineNo & (c.sets - 1)), lineNo>>c.setShift + 1
}

// lookup returns the way index holding tag in the set, or -1. The MRU hint
// is checked first; on a full-scan hit the hint is refreshed.
func (c *Cache) lookup(set int, tag uint64) int {
	setBase := set * c.ways
	if m := c.mru[set]; c.tags[setBase+int(m)] == tag {
		return int(m)
	}
	tags := c.tags[setBase : setBase+c.ways]
	for w, t := range tags {
		if t == tag {
			c.mru[set] = int32(w)
			return w
		}
	}
	return -1
}

// victim returns the way to replace for a CPU allocation: an invalid way if
// any, else the LRU way.
func (c *Cache) victim(setBase int) int {
	best, bestStamp := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if c.tags[setBase+w] == 0 {
			return w
		}
		if s := c.stamps[setBase+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// touchRead handles one line of a CPU read; reports whether it hit.
func (c *Cache) touchRead(set int, tag uint64) bool {
	setBase := set * c.ways
	c.clock++
	if w := c.lookup(set, tag); w >= 0 {
		i := setBase + w
		c.stamps[i] = c.clock
		c.ddio[i] = false // adopted by the CPU
		c.CPUReadHits++
		return true
	}
	c.CPUReadMisses++
	w := c.victim(setBase)
	i := setBase + w
	if c.tags[i] != 0 {
		c.Evictions++
	}
	c.tags[i], c.stamps[i], c.ddio[i] = tag, c.clock, false
	c.mru[set] = int32(w)
	return false
}

// CPURead touches [addr, addr+size) as CPU loads and returns the number of
// lines that hit and missed.
func (c *Cache) CPURead(addr, size uint64) (hits, misses int) {
	if size == 0 {
		return
	}
	first, last := c.lineNo(addr), c.lineNo(addr+size-1)
	for lineNo := first; lineNo <= last; lineNo++ {
		if c.touchRead(c.setOf(lineNo)) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// touchWrite handles one line of a CPU store; reports whether it hit.
func (c *Cache) touchWrite(set int, tag uint64) bool {
	setBase := set * c.ways
	c.clock++
	if w := c.lookup(set, tag); w >= 0 {
		i := setBase + w
		c.stamps[i] = c.clock
		c.ddio[i] = false
		c.CPUWriteHits++
		return true
	}
	c.CPUWriteMisses++
	w := c.victim(setBase)
	i := setBase + w
	if c.tags[i] != 0 {
		c.Evictions++
	}
	c.tags[i], c.stamps[i], c.ddio[i] = tag, c.clock, false
	c.mru[set] = int32(w)
	return false
}

// CPUWrite touches [addr, addr+size) as CPU stores (write-allocate policy).
func (c *Cache) CPUWrite(addr, size uint64) (hits, misses int) {
	if size == 0 {
		return
	}
	first, last := c.lineNo(addr), c.lineNo(addr+size-1)
	for lineNo := first; lineNo <= last; lineNo++ {
		if c.touchWrite(c.setOf(lineNo)) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// touchDMA handles one line of a DDIO write; reports whether it updated in
// place (versus write-allocated).
func (c *Cache) touchDMA(set int, tag uint64) bool {
	setBase := set * c.ways
	c.clock++
	if w := c.lookup(set, tag); w >= 0 {
		// Write Update: in-place, keeps current DDIO status.
		c.stamps[setBase+w] = c.clock
		c.DMAUpdates++
		return true
	}
	c.DMAAllocs++
	// Write Allocate, restricted to the DDIO way budget: prefer an
	// invalid way; otherwise, if the set already holds DDIOWays dma
	// lines, replace the oldest of those; otherwise replace global LRU.
	invalid, oldestDDIO, ddioCount := -1, -1, 0
	var oldestDDIOStamp uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := setBase + w
		if c.tags[i] == 0 {
			if invalid < 0 {
				invalid = w
			}
			continue
		}
		if c.ddio[i] {
			ddioCount++
			if s := c.stamps[i]; s < oldestDDIOStamp {
				oldestDDIO, oldestDDIOStamp = w, s
			}
		}
	}
	var w int
	switch {
	case invalid >= 0:
		w = invalid
	case ddioCount >= c.ddioWays:
		w = oldestDDIO
		c.DMAEvictions++
		c.Evictions++
	default:
		w = c.victim(setBase)
		c.Evictions++
	}
	i := setBase + w
	c.tags[i], c.stamps[i], c.ddio[i] = tag, c.clock, true
	c.mru[set] = int32(w)
	return false
}

// DMAWrite performs a DDIO write of [addr, addr+size) and returns how many
// lines were updated in place versus write-allocated.
func (c *Cache) DMAWrite(addr, size uint64) (updates, allocs int) {
	if size == 0 {
		return
	}
	first, last := c.lineNo(addr), c.lineNo(addr+size-1)
	for lineNo := first; lineNo <= last; lineNo++ {
		if c.touchDMA(c.setOf(lineNo)) {
			updates++
		} else {
			allocs++
		}
	}
	return updates, allocs
}

// Contains reports whether the line holding addr is resident (no LRU touch).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.setOf(c.lineNo(addr))
	return c.lookup(set, tag) >= 0
}

// Flush invalidates the whole cache but keeps statistics.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i], c.stamps[i], c.ddio[i] = 0, 0, false
	}
}

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
