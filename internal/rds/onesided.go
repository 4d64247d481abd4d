package rds

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// OneSided is the pure one-sided backend: every operation is a sequence of
// READ/WRITE/CAS work requests against the server's registered region,
// with no server CPU involvement.
//
// Scratch-region map (client-local, LocalWrite only):
//
//	[0, readSpan)               READ landing area (one bucket)
//	[readSpan, 2·readSpan)      WRITE staging area
type OneSided struct {
	d       *Deployment
	id      int // client index, salts retry backoff
	qp      *nic.QP
	cq      *nic.CQ
	scratch *memory.Region

	readSpan int
	wrid     uint64

	// attempts, when nonzero, bounds seqlock/CAS retries instead of
	// maxAttempts. The adaptive backend sets it around probe ops so a
	// probe into a contended bucket costs a handful of round trips, not
	// thousands (ErrContended then falls back to the preferred backend).
	attempts int
}

// maxTries is the retry budget for seqlock reads and CAS loops.
func (c *OneSided) maxTries() int {
	if c.attempts > 0 {
		return c.attempts
	}
	return maxAttempts
}

// span returns the scratch granule: one bucket, the largest single
// transfer any op performs, rounded to 64 so the areas sit on distinct
// cache lines.
func span(l Layout) int { return (l.BucketBytes() + 63) &^ 63 }

// readOff/stageOff locate the scratch areas.
func (c *OneSided) readOff() uint64  { return c.scratch.Base }
func (c *OneSided) stageOff() uint64 { return c.scratch.Base + uint64(c.readSpan) }

// post issues one signaled work request and blocks until its completion.
func (c *OneSided) post(t *host.Thread, wr nic.SendWR) (nic.CQE, error) {
	c.wrid++
	wr.WRID = c.wrid
	wr.Signaled = true
	if err := t.PostSend(c.qp, wr); err != nil {
		return nic.CQE{}, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	for {
		for _, e := range t.WaitCQ(c.cq, 16, 5*sim.Microsecond) {
			if e.WRID != c.wrid {
				continue // stale completion from an unsignaled pair
			}
			if e.Status != nic.CQOK {
				return e, fmt.Errorf("%w: cqe status %d", ErrRemote, e.Status)
			}
			return e, nil
		}
	}
}

// read READs size bytes at remote offset off into the scratch landing
// area and returns the aliased bytes.
func (c *OneSided) read(t *host.Thread, off, size int) ([]byte, error) {
	_, err := c.post(t, nic.SendWR{
		Op:   nic.OpRead,
		LKey: c.scratch.LKey, LAddr: c.readOff(), Len: size,
		RKey: c.d.Srv.Reg.RKey, RAddr: c.d.Srv.Base() + uint64(off),
	})
	if err != nil {
		return nil, err
	}
	t.ReadMem(c.readOff(), size)
	return c.scratch.Bytes()[:size], nil
}

// cas issues a compare-and-swap on the 8-byte word at remote offset off,
// returning the old value.
func (c *OneSided) cas(t *host.Thread, off int, compare, swap uint64) (uint64, error) {
	e, err := c.post(t, nic.SendWR{
		Op:      nic.OpCompSwap,
		RKey:    c.d.Srv.Reg.RKey,
		RAddr:   c.d.Srv.Base() + uint64(off),
		Compare: compare, Swap: swap,
	})
	return e.AtomicOld, err
}

// Get reads the whole bucket in one READ and scans it locally; an odd
// version word means a writer holds the bucket and the read retries. One
// round trip per attempt.
func (c *OneSided) Get(t *host.Thread, key uint64, val []byte) error {
	lay := c.d.Srv.Lay
	boff := lay.BucketOff(lay.BucketOf(key))
	for attempt := 0; attempt < c.maxTries(); attempt++ {
		b, err := c.read(t, boff, lay.BucketBytes())
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(b[lay.VerOff():])&1 != 0 {
			c.d.Stats.TornRetries++
			t.P.Sleep(backoff(attempt, c.id))
			continue
		}
		// The simulator commits a READ's payload at one instant, so an even
		// version word certifies the snapshot.
		for i := 0; i < lay.SlotsPerBucket; i++ {
			if binary.LittleEndian.Uint64(b[lay.KeyOff(i):]) == key {
				c.d.Stats.Ops++
				c.d.Stats.OneSidedOps++
				copy(val, b[lay.ValOff(i):lay.ValOff(i)+lay.ValSize])
				return nil
			}
		}
		c.d.Stats.Ops++
		c.d.Stats.OneSidedOps++
		return ErrNotFound
	}
	return ErrContended
}

// Put updates or inserts a key under the bucket seqlock:
//
//	READ bucket → pick slot → CAS(version, v, v+1) → one WRITE spanning
//	[target slot .. version word] carrying the new slot bytes, the
//	snapshot of any trailing slots, and version v+2 at the end.
//
// The successful CAS certifies the snapshot (the version cannot have
// moved between READ and CAS), so re-writing the trailing slots from it
// is safe; putting the version word last in the single WRITE means the
// publish and the data commit in the same instant even under the
// torn-write model. Three round trips on the contention-free path.
func (c *OneSided) Put(t *host.Thread, key uint64, val []byte) error {
	lay := c.d.Srv.Lay
	boff := lay.BucketOff(lay.BucketOf(key))
	voff := lay.VerOff()
	for attempt := 0; attempt < c.maxTries(); attempt++ {
		b, err := c.read(t, boff, lay.BucketBytes())
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(b[voff:])
		if v&1 != 0 {
			c.d.Stats.TornRetries++
			t.P.Sleep(backoff(attempt, c.id))
			continue
		}
		slot := -1
		for i := 0; i < lay.SlotsPerBucket; i++ {
			k := binary.LittleEndian.Uint64(b[lay.KeyOff(i):])
			if k == key {
				slot = i
				break
			}
			if k == 0 && slot < 0 {
				slot = i
			}
		}
		if slot < 0 {
			c.d.Stats.Ops++
			c.d.Stats.OneSidedOps++
			return ErrFull
		}
		if old, err := c.cas(t, boff+voff, v, v+1); err != nil {
			return err
		} else if old != v {
			c.d.Stats.CASRetries++
			t.P.Sleep(backoff(attempt, c.id))
			continue
		}
		// Bucket locked. Stage [slot .. version word]: new slot bytes,
		// trailing slots from the certified snapshot, version v+2 last.
		off := lay.KeyOff(slot)
		stage := c.scratch.Bytes()[c.readSpan : c.readSpan+lay.BucketBytes()-off]
		copy(stage, b[off:lay.BucketBytes()])
		binary.LittleEndian.PutUint64(stage, key)
		n := copy(stage[8:8+lay.ValSize], val)
		for i := 8 + n; i < 8+lay.ValSize; i++ {
			stage[i] = 0
		}
		binary.LittleEndian.PutUint64(stage[voff-off:], v+2)
		t.WriteMem(c.stageOff(), len(stage))
		if _, err := c.post(t, nic.SendWR{
			Op:   nic.OpWrite,
			LKey: c.scratch.LKey, LAddr: c.stageOff(), Len: len(stage),
			RKey: c.d.Srv.Reg.RKey, RAddr: c.d.Srv.Base() + uint64(boff+off),
		}); err != nil {
			return err
		}
		c.d.Stats.Ops++
		c.d.Stats.OneSidedOps++
		return nil
	}
	return ErrContended
}
