// Package memory models registered memory regions ("MRs") of a simulated
// host. Each region is an address range in the host's virtual address
// space; RDMA verbs address it with (rkey, virtual address) pairs, exactly
// as ibverbs does. Registration records the page size, because the number
// of page-table entries determines pressure on the NIC's MTT cache (the
// paper notes FaRM's 2 GB pages and LITE's physical registration as ways
// to shrink it; ScaleRPC registers 2 MB huge pages).
//
// The bytes behind a region are a separate matter: the simulator's own
// heap backs them in 256-byte units, or in whole 4 KB host pages once a
// page is viewed, allocated on the first write that reaches each one (see
// Region). The model's registration page size never changes what is
// backed, and the backing never changes an address. Only the store that
// keeps records in place (internal/mica) takes views; everything else
// moves bytes with ByteAt, ReadAt and WriteAt.
package memory

import (
	"bytes"
	"errors"
	"fmt"
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
	ErrCrossPage = errors.New("memory: view crosses a host backing page")
)

// Access flags for registered regions.
type Access uint8

const (
	LocalWrite Access = 1 << iota
	RemoteRead
	RemoteWrite
	RemoteAtomic
)

// Host backing: a region's bytes live in hostPage-sized pages, each backed
// in unitSize units until something takes a view of it and whole after
// that. Pages, units and the pages' unit tables are carved from per-Registry
// slabs, and promotion to a whole page returns the units and unit table it
// replaced for reuse; a region's table of whole pages and its table of
// unit tables are each carved from a slab of slabEntries entries unless
// one needs more than a quarter of it.
const (
	pageShift   = 12
	hostPage    = 1 << pageShift
	unitShift   = 8
	unitSize    = 1 << unitShift
	pageUnits   = hostPage / unitSize
	slabPages   = 64
	slabUnits   = 256
	slabTables  = 256
	slabEntries = 4096
)

type (
	page      [hostPage]byte
	unit      [unitSize]byte
	unitTable [pageUnits]*unit
)

// zeroRef is a page of zeros that allZero and census compare against.
var zeroRef page

// Region is a registered memory region.
//
// Its bytes live in 4 KB host pages, and a page in 256-byte units until
// something views it. A unit is allocated on the first write of a non-zero
// byte to it, so a pool block that only ever holds a short frame costs the
// units the frame touched. The first ReadView or WriteView of a written
// page moves it to one whole page for good, and the first WriteView of an
// unwritten one allocates it whole; ReadView of a page nothing has written
// returns nil and allocates nothing. A whole page is never handed to
// another region, not even after Deregister, so every view is live: it
// sees every later write to its bytes for as long as anything holds it.
// Views cover one host page each; ByteAt, ReadAt and WriteAt read and
// write either form without changing it, and ReadAt and WriteAt carry
// spans that cross pages.
type Region struct {
	LKey     uint32
	RKey     uint32
	Base     uint64 // virtual base address
	PageSize int
	Flags    Access
	size     int
	host     *Registry
	// Page i of the region is backed whole at pages[i], in units through
	// units[i], or, nothing having written it, by neither; never by both.
	// Each table is nil until its first entry, so a region that only ever
	// holds units, or only whole pages, pays for one table.
	pages []*page
	units []*unitTable
	// gen is the region's write generation (see Gen).
	gen uint64
}

// Gen returns the region's write generation. Every WriteAt and every
// WriteView moves it, and every write the NIC commits goes through WriteAt
// (torn writes, atomics and zero writes onto unwritten units included), so
// a byte read at one generation still holds while Gen returns the same
// value. A write through a view taken earlier does not move it: that is
// sound only because no region a poller reads is ever written through a
// view — only internal/mica takes views, of the regions that hold its
// records.
func (r *Region) Gen() uint64 { return r.gen }

// Len returns the region length in bytes.
func (r *Region) Len() int { return r.size }

// Pages returns the number of page-table entries the region occupies.
func (r *Region) Pages() int {
	return (r.size + r.PageSize - 1) / r.PageSize
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

// inPage panics unless [off, off+n) lies inside the region and inside one
// host page, and returns the page index and the offset within it.
func (r *Region) inPage(off, n int) (int, int) {
	o := off & (hostPage - 1)
	if off < 0 || n < 0 || off+n > r.size || o+n > hostPage {
		badView(off, n, r.size)
	}
	return off >> pageShift, o
}

//go:noinline
func badView(off, n, size int) {
	if off < 0 || n < 0 || off+n > size {
		panic(fmt.Sprintf("memory: view [%d,+%d) outside a %d-byte region", off, n, size))
	}
	panic(fmt.Sprintf("memory: view [%d,+%d) crosses a %d-byte host page; use ReadAt/WriteAt", off, n, hostPage))
}

// ByteAt returns the region's byte at offset off: what a poller reads
// when it probes a flag. An unwritten unit or page reads zero. It is
// written to fit the inliner's budget, so a pool's Valid probe inlines it.
func (r *Region) ByteAt(off int) byte {
	if uint(off) >= uint(r.size) {
		panic(ErrOutOfband)
	}
	if i := off >> pageShift; i < len(r.units) && r.units[i] != nil {
		if u := r.units[i][off>>unitShift&(pageUnits-1)]; u != nil {
			return u[uint8(off)] // off&(unitSize-1), unitSize being 256
		}
	} else if i < len(r.pages) && r.pages[i] != nil {
		return r.pages[i][off&(hostPage-1)]
	}
	return 0
}

// backing returns host page i's whole page, or else its unit table: both
// nil for a page nothing has written.
func (r *Region) backing(i int) (*page, *unitTable) {
	if i < len(r.pages) && r.pages[i] != nil {
		return r.pages[i], nil
	}
	if i < len(r.units) {
		return nil, r.units[i]
	}
	return nil, nil
}

// ReadView returns the bytes [off, off+n) of the region in place, or nil
// if nothing has written their page, whose bytes all read zero. The span
// must lie inside one 4 KB host page (offsets are region-relative, and
// regions start page-aligned). A written page is backed whole, if it is
// not already, so the view is live.
func (r *Region) ReadView(off, n int) []byte {
	i, o := r.inPage(off, n)
	if n == 0 {
		return nil
	}
	if p, t := r.backing(i); p != nil {
		return p[o : o+n : o+n]
	} else if t != nil {
		return r.whole(i)[o : o+n : o+n]
	}
	return nil
}

// WriteView returns the bytes [off, off+n) of the region for reading and
// writing, backing their page whole if it is not already. The span must
// lie inside one 4 KB host page.
func (r *Region) WriteView(off, n int) []byte {
	i, o := r.inPage(off, n)
	r.gen++
	if n == 0 {
		return nil
	}
	p := r.whole(i)
	return p[o : o+n : o+n]
}

// tableLen is the number of entries in each of the region's tables: one
// per host page.
func (r *Region) tableLen() int { return (r.size + hostPage - 1) / hostPage }

// whole returns host page i of the region backed whole: allocated on first
// use, with the units that backed it so far copied in and returned.
func (r *Region) whole(i int) *page {
	g := r.host
	if r.pages == nil {
		r.pages = carve(&g.pageEntries, r.tableLen())
	}
	if p := r.pages[i]; p != nil {
		return p
	}
	p := g.pages.get()
	if i < len(r.units) && r.units[i] != nil {
		t := r.units[i]
		for k, u := range t {
			if u != nil {
				copy(p[k<<unitShift:], u[:])
				clear(u[:])
				g.units.put(u)
			}
		}
		*t = unitTable{}
		g.tables.put(t)
		r.units[i] = nil
	}
	r.pages[i] = p
	return p
}

// unit returns unit k of host page i, which is not backed whole,
// allocating it (and the page's unit table) on first use.
func (r *Region) unit(i, k int) *unit {
	g := r.host
	if r.units == nil {
		r.units = carve(&g.unitEntries, r.tableLen())
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
// and pages read as zeros and stay unallocated. A span outside the region
// copies nothing and returns ErrOutOfband.
func (r *Region) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: read [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	for o, rest := int(off), p; len(rest) > 0; {
		i, po := o>>pageShift, o&(hostPage-1)
		chunk := rest[:min(len(rest), hostPage-po)]
		switch pg, t := r.backing(i); {
		case pg != nil:
			copy(chunk, pg[po:])
		case t != nil:
			for c, uo := chunk, po; len(c) > 0; {
				n := min(len(c), unitSize-uo&(unitSize-1))
				if u := t[uo>>unitShift]; u != nil {
					copy(c[:n], u[uo&(unitSize-1):])
				} else {
					clear(c[:n])
				}
				c, uo = c[n:], uo+n
			}
		default:
			clear(chunk)
		}
		rest, o = rest[len(chunk):], o+len(chunk)
	}
	return len(p), nil
}

// WriteAt copies p into the region at offset off. A unit is allocated
// only when a non-zero byte lands in it: writing zeros to an unwritten
// unit leaves it unwritten, which is what it already reads as. A span
// outside the region writes nothing and returns ErrOutOfband.
func (r *Region) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: write [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	r.gen++
	for o, rest := int(off), p; len(rest) > 0; {
		i, po := o>>pageShift, o&(hostPage-1)
		chunk := rest[:min(len(rest), hostPage-po)]
		if pg, t := r.backing(i); pg != nil {
			copy(pg[po:], chunk)
		} else {
			for c, uo := chunk, po; len(c) > 0; {
				k, n := uo>>unitShift, min(len(c), unitSize-uo&(unitSize-1))
				var u *unit
				if t != nil {
					u = t[k]
				}
				if u == nil && !allZero(c[:n]) {
					u = r.unit(i, k)
					t = r.units[i]
				}
				if u != nil {
					copy(u[uo&(unitSize-1):], c[:n])
				}
				c, uo = c[n:], uo+n
			}
		}
		rest, o = rest[len(chunk):], o+len(chunk)
	}
	return len(p), nil
}

// allZero reports whether b holds only zeros. It compares a page at a
// time against zeroRef, which nothing views, with the runtime's vector
// memequal: a bulk frame's zero-filled span would otherwise be scanned a
// byte at a time on every write that lands on unwritten units.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), hostPage)
		if !bytes.Equal(b[:n], zeroRef[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// slab hands out zeroed Ts: returned ones first, then the next of its
// current chunk, whose malloc covers n of them.
type slab[T any] struct {
	n      int
	chunk  []T
	free   []*T // zeroed by whoever returned them
	chunks int  // chunks allocated
}

func (s *slab[T]) get() *T {
	if k := len(s.free); k > 0 {
		p := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return p
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]T, s.n)
		s.chunks++
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// put takes back a zeroed T.
func (s *slab[T]) put(p *T) { s.free = append(s.free, p) }

// Registry is one host's MR table, virtual address allocator and backing
// allocator.
type Registry struct {
	nextKey  uint32
	nextAddr uint64
	byRKey   map[uint32]*Region
	byLKey   map[uint32]*Region
	pages    slab[page]
	units    slab[unit]
	tables   slab[unitTable]
	// The current table slabs' entries not yet handed out.
	pageEntries []*page
	unitEntries []*unitTable
}

// NewRegistry returns an empty registry. Virtual addresses start high so
// zero is never a valid address (catching uninitialized-address bugs).
func NewRegistry() *Registry {
	return &Registry{
		nextKey:  1,
		nextAddr: 0x10_0000_0000,
		byRKey:   make(map[uint32]*Region),
		byLKey:   make(map[uint32]*Region),
		pages:    slab[page]{n: slabPages},
		units:    slab[unit]{n: slabUnits},
		tables:   slab[unitTable]{n: slabTables},
	}
}

// Census is what a registry's regions hold: the bytes registered in live
// regions; the bytes of their resident units, of their pages backed whole
// and of the unit tables their unit-backed pages use; the resident bytes,
// of units or pages, that read all zeros; and the unit, page and unit-table
// bytes the host holds in all — those in use, those deregistered regions
// kept, the units and unit tables promotion returned and the current
// slabs' rest.
type Census struct {
	Registered, Units, Pages, Tables, ZeroResident, Held int
}

// Resident returns the bytes of the live regions' resident units and
// whole pages.
func (c Census) Resident() int { return c.Units + c.Pages }

// Census scans the live regions' tables.
func (g *Registry) Census() Census {
	c := Census{Held: g.pages.chunks*slabPages*hostPage + g.units.chunks*slabUnits*unitSize +
		g.tables.chunks*slabTables*int(unsafe.Sizeof(unitTable{}))}
	for _, r := range g.byRKey {
		r.census(&c)
	}
	return c
}

// census adds what the region holds to c.
func (r *Region) census(c *Census) {
	c.Registered += r.size
	for _, p := range r.pages {
		if p != nil {
			c.Pages += hostPage
			if *p == zeroRef {
				c.ZeroResident += hostPage
			}
		}
	}
	for _, t := range r.units {
		if t == nil {
			continue
		}
		c.Tables += int(unsafe.Sizeof(*t))
		for _, u := range t {
			if u != nil {
				c.Units += unitSize
				if *u == (unit{}) {
					c.ZeroResident += unitSize
				}
			}
		}
	}
}

// carve returns a table of n nil entries cut from *rest, refilling *rest
// with a fresh slab of slabEntries entries when it is short. A table of
// more than a quarter of a slab is allocated on its own.
func carve[T any](rest *[]*T, n int) []*T {
	if n > slabEntries/4 {
		return make([]*T, n)
	}
	if len(*rest) < n {
		*rest = make([]*T, slabEntries)
	}
	t := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return t
}

// Register reserves and registers a region of size bytes with the given
// page size and access flags, returning the region. It allocates no bytes:
// each unit or page is allocated by the first write that reaches it.
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
// through them fail. Its bytes are not recycled: a view of it keeps them
// for as long as anything holds it.
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
// view of the span, which must lie inside one host page (ErrCrossPage
// otherwise): a WriteView for a write, a ReadView for a read.
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
	if off%hostPage+size > hostPage {
		return nil, nil, fmt.Errorf("%w: [%#x,+%d)", ErrCrossPage, addr, size)
	}
	if write {
		return r, r.WriteView(off, size), nil
	}
	return r, r.ReadView(off, size), nil
}
