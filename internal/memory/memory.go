// Package memory models registered memory regions ("MRs") of a simulated
// host. Each region is an address range in the host's virtual address
// space; RDMA verbs address it with (rkey, virtual address) pairs, exactly
// as ibverbs does. Registration records the page size, because the number
// of page-table entries determines pressure on the NIC's MTT cache (the
// paper notes FaRM's 2 GB pages and LITE's physical registration as ways
// to shrink it; ScaleRPC registers 2 MB huge pages).
//
// The bytes behind a region are a separate matter: the simulator's own
// heap backs them in 256-byte units, each allocated on the first write of
// a non-zero byte to it (see Region). A region may also read another
// region's units copy-on-write (see Share). The model's registration page
// size never changes what is backed, and the backing never changes an
// address. Every user moves bytes with ByteAt, ReadAt and WriteAt.
package memory

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unsafe"
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
	ErrCrossUnit = errors.New("memory: view crosses a backing unit")
)

// Access flags for registered regions.
type Access uint8

const (
	LocalWrite Access = 1 << iota
	RemoteRead
	RemoteWrite
	RemoteAtomic
)

// Host backing: a region's bytes live in unitSize units, found through one
// unit table per hostPage of the region. Units and unit tables are carved
// from per-Registry slabs, and a region's table of unit tables from a slab
// of slabEntries entries unless it needs more than a quarter of it.
const (
	pageShift   = 12
	hostPage    = 1 << pageShift
	unitShift   = 8
	unitSize    = 1 << unitShift
	pageUnits   = hostPage / unitSize
	slabUnits   = 256
	slabTables  = 256
	slabEntries = 4096
)

type (
	unit      [unitSize]byte
	unitTable [pageUnits]*unit
)

// Region is a registered memory region.
//
// Its bytes live in 256-byte units. A unit is allocated on the first write
// of a non-zero byte to it, so a pool block that only ever holds a short
// frame costs the units the frame touched, and a unit is never handed to
// another region, not even after Deregister, except as Share lends it.
// ByteAt, ReadAt and WriteAt are the only ways in; TranslateRemote's view
// of one unit is for probes.
type Region struct {
	LKey     uint32
	RKey     uint32
	Base     uint64 // virtual base address
	PageSize int
	Flags    Access
	// borrows reports whether r is the side of a Share that called it:
	// the side that takes the copy when either twin writes a shared unit.
	borrows bool
	// size is the region length, at most 4 GB: a region record fits an
	// 80-byte size class.
	size uint32
	host *Registry
	// units[i] is the unit table of host page i, nil until a write reaches
	// the page; units itself is nil until the region's first write.
	units []*unitTable
	// gen is the region's write generation (see Gen).
	gen uint64
	// twin is the region r shares units with since a Share, nil if none.
	twin *Region
}

// Gen returns the region's write generation. Every WriteAt moves it, and
// every write the NIC commits goes through WriteAt (torn writes, atomics
// and zero writes onto unwritten units included), so a byte read at one
// generation still holds while Gen returns the same value.
func (r *Region) Gen() uint64 { return r.gen }

// Len returns the region length in bytes.
func (r *Region) Len() int { return int(r.size) }

// Pages returns the number of page-table entries the region occupies.
func (r *Region) Pages() int {
	return (r.Len() + r.PageSize - 1) / r.PageSize
}

// PageOf returns the index of the page containing virtual address addr,
// used as the NIC MTT cache key.
func (r *Region) PageOf(addr uint64) int {
	return int((addr - r.Base) / uint64(r.PageSize))
}

// check reports whether [addr, addr+size) lies inside the region.
func (r *Region) check(addr uint64, size int) error {
	if size < 0 || addr < r.Base || addr+uint64(size) > r.Base+uint64(r.size) {
		return fmt.Errorf("%w: [%#x,+%d) not in [%#x,+%d)", ErrOutOfband, addr, size, r.Base, r.size)
	}
	return nil
}

// table returns host page i's unit table, nil for a page nothing has
// written.
func (r *Region) table(i int) *unitTable {
	if i < len(r.units) {
		return r.units[i]
	}
	return nil
}

// unitAt returns the unit holding offset off, nil while it is unwritten.
func (r *Region) unitAt(off int) *unit {
	if t := r.table(off >> pageShift); t != nil {
		return t[off>>unitShift&(pageUnits-1)]
	}
	return nil
}

// ByteAt returns the region's byte at offset off: what a poller reads
// when it probes a flag. An unwritten unit reads zero. It is written to
// fit the inliner's budget, so a pool's Valid probe inlines it.
func (r *Region) ByteAt(off int) byte {
	if uint(off) >= uint(r.size) {
		panic(ErrOutOfband)
	}
	if u := r.unitAt(off); u != nil {
		return u[uint8(off)] // off&(unitSize-1), unitSize being 256
	}
	return 0
}

// unit returns unit k of host page i for writing: allocated (with the
// page's unit table) on first use, and shared with no other region.
func (r *Region) unit(i, k int) *unit {
	if r.twin != nil {
		r.unshare(i, k)
	}
	g := r.host
	if r.units == nil {
		r.units = g.carve((r.Len() + hostPage - 1) / hostPage)
	}
	t := r.units[i]
	if t == nil {
		t = g.tables.get()
		r.units[i] = t
	}
	u := t[k]
	if u == nil {
		u = g.units.get()
		t[k] = u
	}
	return u
}

// ReadAt copies the region's bytes at offset off into p. Unwritten units
// read as zeros and stay unallocated; a page nothing has written is
// cleared in one step. A span outside the region copies nothing and
// returns ErrOutOfband.
func (r *Region) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: read [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	for o, rest := int(off), p; len(rest) > 0; {
		t := r.table(o >> pageShift)
		if t == nil {
			n := min(len(rest), hostPage-o&(hostPage-1))
			clear(rest[:n])
			rest, o = rest[n:], o+n
			continue
		}
		n := min(len(rest), unitSize-o&(unitSize-1))
		if u := t[o>>unitShift&(pageUnits-1)]; u != nil {
			copy(rest[:n], u[o&(unitSize-1):])
		} else {
			clear(rest[:n])
		}
		rest, o = rest[n:], o+n
	}
	return len(p), nil
}

// WriteAt copies p into the region at offset off. A unit is allocated
// only when a non-zero byte lands in it: writing zeros to an unwritten
// unit leaves it unwritten, which is what it already reads as. A unit
// still shared with a twin is made r's own first, even for zeros; one the
// twin does not hold at the same offset is r's alone, and so is its table
// (a shared table holds the same units for both), so it is written in
// place. A span outside the region writes nothing and returns
// ErrOutOfband.
func (r *Region) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: write [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	r.gen++
	for o, rest := int(off), p; len(rest) > 0; {
		n := min(len(rest), unitSize-o&(unitSize-1))
		u := r.unitAt(o)
		if u == nil && !allZero(rest[:n]) || u != nil && r.twin != nil && r.twin.unitAt(o) == u {
			u = r.unit(o>>pageShift, o>>unitShift&(pageUnits-1))
		}
		if u != nil {
			copy(u[o&(unitSize-1):], rest[:n])
		}
		rest, o = rest[n:], o+n
	}
	return len(p), nil
}

// Share makes r, an unwritten region of src's size, read src's units:
// r's unit tables become src's, so it reads what src holds now. It moves
// r's generation. From then on the two are twins, and the first write
// through either of them (WriteAt, a NIC write or atomic, a view) to a
// unit they share gives r its own copy of that unit and of its page's
// unit table before the write lands, so neither ever sees the other's
// writes. src keeps the originals. A region has at most one twin, for
// good; Share panics if either already has one.
func (r *Region) Share(src *Region) {
	if r.units != nil || r.size != src.size || r.twin != nil || src.twin != nil || r == src {
		panic("memory: Share needs an unwritten region of the source's size, neither with a twin")
	}
	r.gen++
	if src.units == nil {
		return // nothing to read: r already reads src's zeros
	}
	r.units = r.host.carve(len(src.units))
	copy(r.units, src.units)
	r.twin, r.borrows = src, true
	src.twin = r
}

// unshare stops unit k of host page i, and the page's unit table, being
// shared between r and its twin, ahead of a write by either: the side
// that borrowed them takes copies, and the lender keeps the originals.
func (r *Region) unshare(i, k int) {
	b, l := r, r.twin // borrower, lender
	if !r.borrows {
		b, l = l, b
	}
	bt, lt := b.table(i), l.table(i)
	if bt == nil || lt == nil {
		return
	}
	if bt == lt {
		bt = b.host.tables.get()
		*bt = *lt
		b.units[i] = bt
	}
	if u := bt[k]; u != nil && u == lt[k] {
		c := b.host.units.get()
		*c = *u
		bt[k] = c
	}
}

// zeroUnit is what allZero and census compare against.
var zeroUnit unit

// allZero reports whether b holds only zeros. It compares a unit at a
// time against zeroUnit with the runtime's vector memequal: a bulk frame's
// zero-filled span would otherwise be scanned a byte at a time on every
// write that lands on unwritten units.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), unitSize)
		if !bytes.Equal(b[:n], zeroUnit[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// slab hands out zeroed Ts, the next of its current chunk, whose malloc
// covers n of them.
type slab[T any] struct {
	n      int
	chunk  []T
	chunks int // chunks allocated
}

func (s *slab[T]) get() *T {
	if len(s.chunk) == 0 {
		s.chunk = make([]T, s.n)
		s.chunks++
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// Registry is one host's MR table, virtual address allocator and backing
// allocator.
type Registry struct {
	nextKey  uint32
	nextAddr uint64
	byRKey   map[uint32]*Region
	byLKey   map[uint32]*Region
	units    slab[unit]
	tables   slab[unitTable]
	// entries is the current slab of table entries not yet handed out.
	entries []*unitTable
}

// NewRegistry returns an empty registry. Virtual addresses start high so
// zero is never a valid address (catching uninitialized-address bugs).
func NewRegistry() *Registry {
	return &Registry{
		nextKey:  1,
		nextAddr: 0x10_0000_0000,
		byRKey:   make(map[uint32]*Region),
		byLKey:   make(map[uint32]*Region),
		units:    slab[unit]{n: slabUnits},
		tables:   slab[unitTable]{n: slabTables},
	}
}

// Census is what a registry's regions hold: the bytes registered in live
// regions; the bytes of their resident units and of the unit tables their
// written pages use; of those unit bytes, the ones twins share (see
// Share); the resident unit bytes that read all zeros; and the unit and
// unit-table bytes the host holds in all — those in use, those
// deregistered regions kept and the current slabs' rest. A unit or unit
// table two twins share is counted once, with the twin that lent it,
// whose host's slabs hold it.
type Census struct {
	Registered, Units, Tables, Shared, ZeroResident, Held int
}

// Census scans the live regions' tables.
func (g *Registry) Census() Census {
	c := Census{Held: g.units.chunks*slabUnits*unitSize +
		g.tables.chunks*slabTables*int(unsafe.Sizeof(unitTable{}))}
	for _, r := range g.byRKey {
		r.census(&c)
	}
	return c
}

// census adds what the region holds to c. A borrower skips what it still
// shares with its twin; the lender counts it, and in Shared too.
func (r *Region) census(c *Census) {
	c.Registered += r.Len()
	for i, t := range r.units {
		if t == nil {
			continue
		}
		var tt *unitTable // the twin's table of page i
		if r.twin != nil {
			tt = r.twin.table(i)
		}
		if t != tt || !r.borrows {
			c.Tables += int(unsafe.Sizeof(*t))
		}
		for k, u := range t {
			if u == nil {
				continue
			}
			shared := tt != nil && tt[k] == u
			if shared && r.borrows {
				continue
			}
			if shared {
				c.Shared += unitSize
			}
			c.Units += unitSize
			if *u == zeroUnit {
				c.ZeroResident += unitSize
			}
		}
	}
}

// carve returns a table of n nil entries cut from the current entry slab,
// refilling it with a fresh one of slabEntries entries when it is short. A
// table of more than a quarter of a slab is allocated on its own.
func (g *Registry) carve(n int) []*unitTable {
	if n > slabEntries/4 {
		return make([]*unitTable, n)
	}
	if len(g.entries) < n {
		g.entries = make([]*unitTable, slabEntries)
	}
	t := g.entries[:n:n]
	g.entries = g.entries[n:]
	return t
}

// Register reserves and registers a region of size bytes with the given
// page size and access flags, returning the region. It allocates no bytes:
// each unit is allocated by the first write that reaches it.
func (g *Registry) Register(size int, pageSize int, flags Access) *Region {
	if size <= 0 || size > math.MaxUint32 {
		panic(fmt.Sprintf("memory: region size %d not in (0, 4 GB]", size))
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
		size:     uint32(size),
		host:     g,
	}
	g.nextKey++
	// Keep regions page-aligned and well separated.
	span := (uint64(size)/uint64(pageSize) + 2) * uint64(pageSize)
	g.nextAddr += span
	g.byRKey[r.RKey] = r
	g.byLKey[r.LKey] = r
	return r
}

// Deregister removes a region's keys, so outstanding and later accesses
// through them fail. Its units stay with it.
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

// RemoteRegion resolves an (rkey, addr, size) triple for a remote
// operation of the given class, enforcing the matching access flag —
// RemoteRead for READs, RemoteWrite for WRITEs, RemoteAtomic for
// CAS/FetchAdd — and the region's bounds. The caller moves the bytes with
// the region's ReadAt/WriteAt at offset addr-Base.
func (g *Registry) RemoteRegion(rkey uint32, addr uint64, size int, op RemoteOp) (*Region, error) {
	r, ok := g.byRKey[rkey]
	if !ok {
		return nil, fmt.Errorf("%w: rkey %d", ErrBadKey, rkey)
	}
	switch op {
	case RemoteOpRead:
		if r.Flags&RemoteRead == 0 {
			return nil, fmt.Errorf("%w: remote read of rkey %d", ErrPerm, rkey)
		}
	case RemoteOpWrite:
		if r.Flags&RemoteWrite == 0 {
			return nil, fmt.Errorf("%w: remote write to rkey %d", ErrPerm, rkey)
		}
	case RemoteOpAtomic:
		if r.Flags&RemoteAtomic == 0 {
			return nil, fmt.Errorf("%w: remote atomic on rkey %d", ErrPerm, rkey)
		}
	}
	if err := r.check(addr, size); err != nil {
		return nil, err
	}
	return r, nil
}

// LocalRegion resolves an (lkey, addr, size) triple for a local
// scatter/gather element.
func (g *Registry) LocalRegion(lkey uint32, addr uint64, size int) (*Region, error) {
	r, ok := g.byLKey[lkey]
	if !ok {
		return nil, fmt.Errorf("%w: lkey %d", ErrBadKey, lkey)
	}
	if err := r.check(addr, size); err != nil {
		return nil, err
	}
	return r, nil
}

// TranslateRemote is RemoteRegion for a READ or a WRITE followed by a
// view of the span in place, which must lie inside one 256-byte unit
// (ErrCrossUnit otherwise). Either view may be written through, so taking
// one allocates its unit and moves the region's generation; a write
// through it later moves nothing, so nothing but a probe of the
// translation cost uses it.
func (g *Registry) TranslateRemote(rkey uint32, addr uint64, size int, write bool) (*Region, []byte, error) {
	op := RemoteOpRead
	if write {
		op = RemoteOpWrite
	}
	r, err := g.RemoteRegion(rkey, addr, size, op)
	if err != nil {
		return nil, nil, err
	}
	off := int(addr - r.Base)
	o := off & (unitSize - 1)
	if o+size > unitSize {
		return nil, nil, fmt.Errorf("%w: [%#x,+%d)", ErrCrossUnit, addr, size)
	}
	r.gen++
	u := r.unit(off>>pageShift, off>>unitShift&(pageUnits-1))
	return r, u[o : o+size : o+size], nil
}
