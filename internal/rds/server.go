package rds

import (
	"encoding/binary"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// RPC handler ids the rds server registers with its ScaleRPC server.
const (
	HandlerGet uint8 = iota + 1
	HandlerPut
)

// Response status bytes.
const (
	stOK byte = iota
	stNotFound
	stFull
	stErr
)

// Server hosts the hash table: one registered region holding its buckets,
// plus a ScaleRPC server whose handlers execute the same protocol
// server-side. The region is registered with RemoteAtomic in addition to
// RemoteRead/RemoteWrite — without it every one-sided CAS would complete
// with a remote access error.
type Server struct {
	H   *host.Host
	Lay Layout
	Reg *memory.Region
	RPC *scalerpc.Server

	// Work is the CPU charge per RPC-handled op, on top of the modeled
	// memory traffic.
	Work sim.Duration

	val []byte // a value being stored, padded to ValSize
}

// newServer registers the region and installs the RPC handlers on a
// ScaleRPC server at the paper's configuration (the caller starts it).
func newServer(h *host.Host, lay Layout, work sim.Duration) *Server {
	lay.check()
	s := &Server{H: h, Lay: lay, Work: work, val: make([]byte, lay.ValSize)}
	s.Reg = h.Mem.Register(lay.Bytes(), memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)
	s.RPC = scalerpc.NewServer(h, scalerpc.DefaultServerConfig())
	s.RPC.Register(HandlerGet, s.handleGet)
	s.RPC.Register(HandlerPut, s.handlePut)
	return s
}

// Base returns the region's virtual base address.
func (s *Server) Base() uint64 { return s.Reg.Base }

// word reads the 8-byte word at region offset off; putWord writes it.
// Buckets need not sit inside one backing page, so the table is read and
// written through ReadAt/WriteAt, whose errors are dropped: every offset
// here comes from the layout the region was sized for.
func (s *Server) word(off int) uint64 {
	var b [8]byte
	_, _ = s.Reg.ReadAt(b[:], int64(off))
	return binary.LittleEndian.Uint64(b[:])
}

func (s *Server) putWord(off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = s.Reg.WriteAt(b[:], int64(off))
}

// putVal stores val, zero-padded to ValSize, at region offset off.
func (s *Server) putVal(off int, val []byte) {
	n := copy(s.val, val)
	clear(s.val[n:])
	_, _ = s.Reg.WriteAt(s.val, int64(off))
}

// lockBucket claims bucket boff's version word server-side. The read and
// the odd-write happen back to back with no intervening charge or yield,
// so within the cooperative simulator the claim is atomic with respect to
// one-sided CAS packets (which execute in their own NIC event): a CAS that
// lands before the claim is visible to the read; one that lands after sees
// the odd version and fails. Returns the pre-lock version and false if the
// bucket was already locked.
func (s *Server) lockBucket(boff int) (uint64, bool) {
	voff := boff + s.Lay.VerOff()
	v := s.word(voff)
	if v&1 != 0 {
		return v, false
	}
	s.putWord(voff, v+1)
	return v, true
}

// unlockBucket publishes the new even version.
func (s *Server) unlockBucket(boff int, v uint64) {
	s.putWord(boff+s.Lay.VerOff(), v+2)
}

// handleGet: req = [8B key] → resp [status][ValSize value].
// Reads are served under the seqlock: retry the scan while the version is
// odd or moved, exactly like a local seqlock reader.
func (s *Server) handleGet(t *host.Thread, clientID uint16, req []byte, out []byte) int {
	if len(req) < 8 {
		out[0] = stErr
		return 1
	}
	key := binary.LittleEndian.Uint64(req)
	lay := s.Lay
	boff := lay.BucketOff(lay.BucketOf(key))
	t.Work(s.Work)
	t.ReadMem(s.Reg.Base+uint64(boff), lay.BucketBytes())
	for spin := 0; ; spin++ {
		v := s.word(boff + lay.VerOff())
		if v&1 != 0 {
			// Locked by a one-sided writer mid-update: wait it out. Sleep,
			// not Work — worker CPU charges are batched, so only a real
			// sleep lets the lock holder's WRITE land.
			if spin > maxAttempts {
				out[0] = stErr
				return 1
			}
			t.P.Sleep(backoffBase)
			continue
		}
		// The scan below runs without yielding, so no writer can slip in
		// between the version check and the slot reads.
		for i := 0; i < lay.SlotsPerBucket; i++ {
			if s.word(boff+lay.KeyOff(i)) == key {
				out[0] = stOK
				_, _ = s.Reg.ReadAt(out[1:1+lay.ValSize], int64(boff+lay.ValOff(i))) // in the layout
				return 1 + lay.ValSize
			}
		}
		out[0] = stNotFound
		return 1
	}
}

// handlePut: req = [8B key][value] → resp [status].
func (s *Server) handlePut(t *host.Thread, clientID uint16, req []byte, out []byte) int {
	if len(req) < 8 {
		out[0] = stErr
		return 1
	}
	key := binary.LittleEndian.Uint64(req)
	val := req[8:]
	lay := s.Lay
	boff := lay.BucketOff(lay.BucketOf(key))
	t.Work(s.Work)
	t.ReadMem(s.Reg.Base+uint64(boff), lay.BucketBytes())
	var v uint64
	for spin := 0; ; spin++ {
		var ok bool
		if v, ok = s.lockBucket(boff); ok {
			break
		}
		if spin > maxAttempts {
			out[0] = stErr
			return 1
		}
		// Sleep, not Work: see handleGet.
		t.P.Sleep(backoffBase)
	}
	defer s.unlockBucket(boff, v)
	free := -1
	for i := 0; i < lay.SlotsPerBucket; i++ {
		k := s.word(boff + lay.KeyOff(i))
		if k == key {
			free = i
			break
		}
		if k == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 {
		out[0] = stFull
		return 1
	}
	s.putWord(boff+lay.KeyOff(free), key)
	s.putVal(boff+lay.ValOff(free), val)
	t.WriteMem(s.Reg.Base+uint64(boff+lay.KeyOff(free)), 8+lay.ValSize)
	out[0] = stOK
	return 1
}

// Prepopulate stores keys 1..n with a fill pattern directly (no simulated
// cost) so read-heavy workloads start from a warm table.
func (s *Server) Prepopulate(n uint64, fill byte) {
	lay := s.Lay
	val := make([]byte, lay.ValSize)
	for i := range val {
		val[i] = fill
	}
	for key := uint64(1); key <= n; key++ {
		boff := lay.BucketOff(lay.BucketOf(key))
		for i := 0; i < lay.SlotsPerBucket; i++ {
			k := s.word(boff + lay.KeyOff(i))
			if k == key {
				break
			}
			if k == 0 {
				s.putWord(boff+lay.KeyOff(i), key)
				s.putVal(boff+lay.ValOff(i), val)
				break
			}
		}
	}
}
