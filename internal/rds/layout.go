package rds

// Layout fixes the geometry of the server's registered region. Both the
// one-sided clients and the server-side RPC handlers interpret the same
// bytes, so the layout is the wire contract of the whole subsystem.
//
// The region is the hash table alone: Buckets × BucketBytes, bucket b at
// b × BucketBytes. Within one bucket the version word sits at the HIGHEST
// address, so a writer can publish slot bytes and the new version in one
// WRITE whose final (torn-delayed) byte is the version's never-changing
// MSB; under the simulator's increasing-address torn-write model the data
// and the version parity therefore always commit in the same instant:
//
//	[i*(8+ValSize), ...)         slot i: 8-byte key (0 = empty) + value
//	[SlotsPerBucket*(8+ValSize)) version word — even: stable, odd: locked
type Layout struct {
	Buckets        int // power of two
	SlotsPerBucket int
	ValSize        int // fixed value size in bytes
}

// check panics on an unusable geometry.
func (l Layout) check() {
	if l.Buckets <= 0 || l.Buckets&(l.Buckets-1) != 0 {
		panic("rds: Buckets must be a power of two")
	}
	if l.SlotsPerBucket <= 0 || l.ValSize <= 0 {
		panic("rds: SlotsPerBucket and ValSize must be positive")
	}
}

// BucketBytes is the size of one bucket (version word + slots).
func (l Layout) BucketBytes() int { return 8 + l.SlotsPerBucket*(8+l.ValSize) }

// BucketOff locates bucket b.
func (l Layout) BucketOff(b int) int { return b * l.BucketBytes() }

// KeyOff/ValOff/VerOff locate slot s and the version word inside a
// bucket (relative to the bucket).
func (l Layout) KeyOff(s int) int { return s * (8 + l.ValSize) }
func (l Layout) ValOff(s int) int { return l.KeyOff(s) + 8 }
func (l Layout) VerOff() int      { return l.SlotsPerBucket * (8 + l.ValSize) }

// Bytes is the total registered-region size.
func (l Layout) Bytes() int { return l.Buckets * l.BucketBytes() }

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
