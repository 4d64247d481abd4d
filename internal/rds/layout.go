package rds

import "encoding/binary"

// Layout fixes the geometry of the server's registered region. Both the
// one-sided clients and the server-side RPC handlers interpret the same
// bytes, so the layout is the wire contract of the whole subsystem.
//
// Region map (all offsets from the region base):
//
//	[0, HT)                      hash table: Buckets × BucketBytes
//	[HT, HT+64)                  queue tail ticket (8 bytes used)
//	[HT+64, HT+128)              queue head ticket (8 bytes used)
//	[HT+128, ...)                queue ring: QueueCap × SlotBytes
//
// One bucket — the version word sits at the HIGHEST address so a writer
// can publish slot bytes and the new version in one WRITE whose final
// (torn-delayed) byte is the version's never-changing MSB; under the
// simulator's increasing-address torn-write model the data and the
// version parity therefore always commit in the same instant:
//
//	[i*(8+ValSize), ...)         slot i: 8-byte key (0 = empty) + value
//	[SlotsPerBucket*(8+ValSize)) version word — even: stable, odd: locked
//
// One queue slot — the commit word is LAST so that the simulator's
// increasing-address torn-write model exposes data before the sequence
// number, never the reverse:
//
//	[0, 4)                       element length
//	[4, 4+ValSize)               element bytes (zero-padded)
//	[4+ValSize, 12+ValSize)      sequence number (Vyukov ring protocol)
type Layout struct {
	Buckets        int // power of two
	SlotsPerBucket int
	ValSize        int // fixed value size in bytes
	QueueCap       int // power of two ring slots
}

// check panics on an unusable geometry.
func (l Layout) check() {
	if l.Buckets <= 0 || l.Buckets&(l.Buckets-1) != 0 {
		panic("rds: Buckets must be a power of two")
	}
	if l.QueueCap <= 0 || l.QueueCap&(l.QueueCap-1) != 0 {
		panic("rds: QueueCap must be a power of two")
	}
	if l.SlotsPerBucket <= 0 || l.ValSize <= 0 {
		panic("rds: SlotsPerBucket and ValSize must be positive")
	}
}

// BucketBytes is the size of one bucket (version word + slots).
func (l Layout) BucketBytes() int { return 8 + l.SlotsPerBucket*(8+l.ValSize) }

// SlotBytes is the size of one queue ring slot.
func (l Layout) SlotBytes() int { return 12 + l.ValSize }

// htBytes is the hash-table span.
func (l Layout) htBytes() int { return l.Buckets * l.BucketBytes() }

// TailOff/HeadOff/RingOff locate the queue control words and ring.
func (l Layout) TailOff() int { return l.htBytes() }
func (l Layout) HeadOff() int { return l.htBytes() + 64 }
func (l Layout) RingOff() int { return l.htBytes() + 128 }

// SlotOff locates ring slot i.
func (l Layout) SlotOff(i int) int { return l.RingOff() + i*l.SlotBytes() }

// SeqOff locates the commit word inside ring slot i.
func (l Layout) SeqOff(i int) int { return l.SlotOff(i) + 4 + l.ValSize }

// BucketOff locates bucket b.
func (l Layout) BucketOff(b int) int { return b * l.BucketBytes() }

// KeyOff/ValOff/VerOff locate slot s and the version word inside a
// bucket (relative to the bucket).
func (l Layout) KeyOff(s int) int { return s * (8 + l.ValSize) }
func (l Layout) ValOff(s int) int { return l.KeyOff(s) + 8 }
func (l Layout) VerOff() int      { return l.SlotsPerBucket * (8 + l.ValSize) }

// Bytes is the total registered-region size.
func (l Layout) Bytes() int { return l.RingOff() + l.QueueCap*l.SlotBytes() }

// BucketOf maps a key to its bucket with a splitmix64-style finalizer, so
// adjacent keys scatter across buckets.
func (l Layout) BucketOf(key uint64) int {
	return int(mix64(key) & uint64(l.Buckets-1))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// initQueue stamps the ring's initial sequence numbers (slot i starts at
// seq i, per the Vyukov protocol) into a freshly zeroed region image.
func (l Layout) initQueue(buf []byte) {
	for i := 0; i < l.QueueCap; i++ {
		binary.LittleEndian.PutUint64(buf[l.SeqOff(i):], uint64(i))
	}
}
