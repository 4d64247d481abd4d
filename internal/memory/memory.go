// Package memory models registered memory regions ("MRs") of a simulated
// host. Each region is an address range in the host's virtual address
// space whose bytes are allocated on first touch; RDMA verbs address it
// with (rkey, virtual address) pairs, exactly as ibverbs does.
// Registration records the page size, because the number of page-table
// entries determines pressure on the NIC's MTT cache (the paper notes
// FaRM's 2 GB pages and LITE's physical registration as ways to shrink
// it; ScaleRPC registers 2 MB huge pages).
package memory

import (
	"errors"
	"fmt"
)

// Page sizes supported by registration.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
	PageSize1G = 1 << 30
)

// Errors returned by translation.
var (
	ErrBadKey    = errors.New("memory: unknown protection key")
	ErrOutOfband = errors.New("memory: access outside registered region")
	ErrPerm      = errors.New("memory: access violates region permissions")
)

// Access flags for registered regions.
type Access uint8

const (
	LocalWrite Access = 1 << iota
	RemoteRead
	RemoteWrite
	RemoteAtomic
)

// Region is a registered memory region.
type Region struct {
	LKey     uint32
	RKey     uint32
	Base     uint64 // virtual base address
	PageSize int
	Flags    Access
	size     int
	buf      []byte // nil until the first Bytes call
}

// Len returns the region length in bytes.
func (r *Region) Len() int { return r.size }

// Bytes exposes the backing store. Local software uses this for direct
// access; remote access must go through the verbs layer. The zeroed store
// is allocated on the first call and kept for the region's lifetime, so a
// region only addressed by the cache, PCIe and MTT models (a CQ ring, a
// redo log nothing reads) costs no bytes.
func (r *Region) Bytes() []byte {
	if r.buf == nil {
		r.buf = make([]byte, r.size)
	}
	return r.buf
}

// Pages returns the number of page-table entries the region occupies.
func (r *Region) Pages() int {
	return (r.size + r.PageSize - 1) / r.PageSize
}

// PageOf returns the index of the page containing virtual address addr,
// used as the NIC MTT cache key.
func (r *Region) PageOf(addr uint64) int {
	return int((addr - r.Base) / uint64(r.PageSize))
}

// Slice returns the backing bytes for [addr, addr+size).
func (r *Region) Slice(addr uint64, size int) ([]byte, error) {
	if addr < r.Base || addr+uint64(size) > r.Base+uint64(r.size) {
		return nil, fmt.Errorf("%w: [%#x,+%d) not in [%#x,+%d)", ErrOutOfband, addr, size, r.Base, r.size)
	}
	off := addr - r.Base
	return r.Bytes()[off : off+uint64(size)], nil
}

// Registry is one host's MR table and virtual address allocator.
type Registry struct {
	nextKey  uint32
	nextAddr uint64
	byRKey   map[uint32]*Region
	byLKey   map[uint32]*Region
}

// NewRegistry returns an empty registry. Virtual addresses start high so
// zero is never a valid address (catching uninitialized-address bugs).
func NewRegistry() *Registry {
	return &Registry{
		nextKey:  1,
		nextAddr: 0x10_0000_0000,
		byRKey:   make(map[uint32]*Region),
		byLKey:   make(map[uint32]*Region),
	}
}

// Register reserves and registers a region of size bytes with the given
// page size and access flags, returning the region. Its bytes are
// allocated by the first Bytes or Slice call.
func (g *Registry) Register(size int, pageSize int, flags Access) *Region {
	if size <= 0 {
		panic("memory: non-positive region size")
	}
	if pageSize != PageSize4K && pageSize != PageSize2M && pageSize != PageSize1G {
		panic(fmt.Sprintf("memory: unsupported page size %d", pageSize))
	}
	r := &Region{
		LKey:     g.nextKey,
		RKey:     g.nextKey,
		Base:     g.nextAddr,
		PageSize: pageSize,
		Flags:    flags,
		size:     size,
	}
	g.nextKey++
	// Keep regions page-aligned and well separated.
	span := (uint64(size)/uint64(pageSize) + 2) * uint64(pageSize)
	g.nextAddr += span
	g.byRKey[r.RKey] = r
	g.byLKey[r.LKey] = r
	return r
}

// Deregister removes a region. Outstanding accesses to it will fail.
func (g *Registry) Deregister(r *Region) {
	delete(g.byRKey, r.RKey)
	delete(g.byLKey, r.LKey)
}

// RemoteOp classifies a remote access for permission checking. Atomics
// are their own class: ibverbs grants them with IBV_ACCESS_REMOTE_ATOMIC,
// not with the write permission, and the NIC enforces the distinction in
// hardware — a CAS against a write-only region is a remote access error.
type RemoteOp int

// Remote access classes.
const (
	RemoteOpRead RemoteOp = iota
	RemoteOpWrite
	RemoteOpAtomic
)

func (o RemoteOp) String() string {
	switch o {
	case RemoteOpRead:
		return "READ"
	case RemoteOpWrite:
		return "WRITE"
	case RemoteOpAtomic:
		return "ATOMIC"
	}
	return "?"
}

// TranslateRemote resolves an (rkey, addr, size) triple for a remote
// read or write, enforcing permissions. CAS/FetchAdd targets go through
// TranslateRemoteOp with RemoteOpAtomic instead — atomics do not ride the
// write permission.
func (g *Registry) TranslateRemote(rkey uint32, addr uint64, size int, write bool) (*Region, []byte, error) {
	op := RemoteOpRead
	if write {
		op = RemoteOpWrite
	}
	return g.TranslateRemoteOp(rkey, addr, size, op)
}

// TranslateRemoteOp resolves an (rkey, addr, size) triple for a remote
// operation of the given class, enforcing the matching access flag:
// RemoteRead for READs, RemoteWrite for WRITEs, RemoteAtomic for
// CAS/FetchAdd.
func (g *Registry) TranslateRemoteOp(rkey uint32, addr uint64, size int, op RemoteOp) (*Region, []byte, error) {
	r, ok := g.byRKey[rkey]
	if !ok {
		return nil, nil, fmt.Errorf("%w: rkey %d", ErrBadKey, rkey)
	}
	switch op {
	case RemoteOpRead:
		if r.Flags&RemoteRead == 0 {
			return nil, nil, fmt.Errorf("%w: remote read of rkey %d", ErrPerm, rkey)
		}
	case RemoteOpWrite:
		if r.Flags&RemoteWrite == 0 {
			return nil, nil, fmt.Errorf("%w: remote write to rkey %d", ErrPerm, rkey)
		}
	case RemoteOpAtomic:
		if r.Flags&RemoteAtomic == 0 {
			return nil, nil, fmt.Errorf("%w: remote atomic on rkey %d", ErrPerm, rkey)
		}
	}
	b, err := r.Slice(addr, size)
	if err != nil {
		return nil, nil, err
	}
	return r, b, nil
}

// TranslateLocal resolves an (lkey, addr, size) triple for a local
// scatter/gather element.
func (g *Registry) TranslateLocal(lkey uint32, addr uint64, size int) (*Region, []byte, error) {
	r, ok := g.byLKey[lkey]
	if !ok {
		return nil, nil, fmt.Errorf("%w: lkey %d", ErrBadKey, lkey)
	}
	b, err := r.Slice(addr, size)
	if err != nil {
		return nil, nil, err
	}
	return r, b, nil
}
