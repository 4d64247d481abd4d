// Package memory models registered memory regions ("MRs") of a simulated
// host. Each region is an address range in the host's virtual address
// space; RDMA verbs address it with (rkey, virtual address) pairs, exactly
// as ibverbs does. Registration records the page size, because the number
// of page-table entries determines pressure on the NIC's MTT cache (the
// paper notes FaRM's 2 GB pages and LITE's physical registration as ways
// to shrink it; ScaleRPC registers 2 MB huge pages).
//
// The bytes behind a region are a separate matter: the simulator's own
// heap backs them in 4 KB host pages, allocated on the first write that
// reaches each one (see Region). The model's registration page size never
// changes what is backed, and the backing never changes an address.
package memory

import (
	"bytes"
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

// Host backing: a region's bytes live in hostPage-sized pages, carved
// slabPages at a time from one slab per Registry, and its page table is
// carved from a slab of tableSlab entries unless it needs more than a
// quarter of one.
const (
	pageShift = 12
	hostPage  = 1 << pageShift
	slabPages = 64
	tableSlab = 4096
)

type page [hostPage]byte

// zeroPage backs every read view of a page nothing has written. Nothing
// may write to it; Guard checks that against zeroRef, which nothing views.
var zeroPage, zeroRef page

// Guard makes ReadView check the span of the shared zero page it hands
// out, so a write through a read view of an unwritten page panics when the
// written bytes are next viewed instead of showing up as stray bytes in
// another region. Tests set it; nothing else does.
var Guard bool

// Region is a registered memory region.
//
// Its bytes live in 4 KB host pages. A page is allocated on the first
// write of a non-zero byte to it and then stays where it is until the
// region is deregistered, so a view into a written page (WriteView, or
// ReadView of a written page) stays valid, and sees later writes, for the
// region's lifetime. A read of a page nothing has written sees zeros and
// allocates nothing: ReadView hands out the shared zero page, a snapshot
// that later writes do not reach. Views cover one host page each;
// ReadAt and WriteAt carry spans that cross pages.
type Region struct {
	LKey     uint32
	RKey     uint32
	Base     uint64 // virtual base address
	PageSize int
	Flags    Access
	size     int
	host     *Registry
	pages    []*page // nil until the first write; a nil entry is an unwritten page
}

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
// when it probes a flag. An unwritten page reads zero.
func (r *Region) ByteAt(off int) byte {
	if uint(off) >= uint(r.size) {
		panic(ErrOutOfband)
	}
	if i := off >> pageShift; i < len(r.pages) {
		if p := r.pages[i]; p != nil {
			return p[off&(hostPage-1)]
		}
	}
	return 0
}

// ReadView returns the bytes [off, off+n) of the region for reading. The
// span must lie inside one 4 KB host page (offsets are region-relative,
// and regions start page-aligned). A written page is viewed in place; an
// unwritten one through the shared zero page, which must never be written
// — take a WriteView, or call WriteAt, to write.
func (r *Region) ReadView(off, n int) []byte {
	i, o := r.inPage(off, n)
	if n == 0 {
		return nil
	}
	if i < len(r.pages) {
		if p := r.pages[i]; p != nil {
			return p[o : o+n : o+n]
		}
	}
	if Guard && !bytes.Equal(zeroPage[o:o+n], zeroRef[o:o+n]) {
		panic("memory: a write went through a read view of an unwritten page")
	}
	return zeroPage[o : o+n : o+n]
}

// WriteView returns the bytes [off, off+n) of the region for reading and
// writing, allocating their page if nothing has written it yet. The span
// must lie inside one 4 KB host page.
func (r *Region) WriteView(off, n int) []byte {
	i, o := r.inPage(off, n)
	if n == 0 {
		return nil
	}
	p := r.page(i)
	return p[o : o+n : o+n]
}

// page returns host page i of the region, allocating it (and the region's
// page table) on first use.
func (r *Region) page(i int) *page {
	if r.pages == nil {
		r.pages = r.host.newTable((r.size + hostPage - 1) / hostPage)
	}
	p := r.pages[i]
	if p == nil {
		p = r.host.newPage()
		r.pages[i] = p
	}
	return p
}

// ReadAt copies the region's bytes at offset off into p. Unwritten pages
// read as zeros and stay unallocated. A span outside the region copies
// nothing and returns ErrOutOfband.
func (r *Region) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: read [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	o := int(off)
	for done := 0; done < len(p); {
		i, po := o/hostPage, o%hostPage
		chunk := p[done:min(len(p), done+hostPage-po)]
		if r.pages != nil && r.pages[i] != nil {
			copy(chunk, r.pages[i][po:])
		} else {
			clear(chunk)
		}
		done += len(chunk)
		o += len(chunk)
	}
	return len(p), nil
}

// WriteAt copies p into the region at offset off. A page is allocated
// only when a non-zero byte lands in it: writing zeros to an unwritten
// page leaves it unwritten, which is what it already reads as. A span
// outside the region writes nothing and returns ErrOutOfband.
func (r *Region) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(r.size) {
		return 0, fmt.Errorf("%w: write [%d,+%d) of a %d-byte region", ErrOutOfband, off, len(p), r.size)
	}
	o := int(off)
	for done := 0; done < len(p); {
		i, po := o/hostPage, o%hostPage
		chunk := p[done:min(len(p), done+hostPage-po)]
		if r.pages != nil && r.pages[i] != nil {
			copy(r.pages[i][po:], chunk)
		} else if !allZero(chunk) {
			copy(r.page(i)[po:], chunk)
		}
		done += len(chunk)
		o += len(chunk)
	}
	return len(p), nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Registry is one host's MR table, virtual address allocator and backing
// page allocator.
type Registry struct {
	nextKey  uint32
	nextAddr uint64
	byRKey   map[uint32]*Region
	byLKey   map[uint32]*Region
	slab     []page  // the current slab's pages not yet handed out
	free     []*page // zeroed pages returned by Deregister
	slabs    int     // slabs allocated
	tables   []*page // the current table slab's entries not yet handed out
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

// newPage returns a zeroed host page: a deregistered region's, or the
// next of the current slab, whose malloc covers slabPages pages.
func (g *Registry) newPage() *page {
	if n := len(g.free); n > 0 {
		p := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		return p
	}
	if len(g.slab) == 0 {
		g.slab = make([]page, slabPages)
		g.slabs++
	}
	p := &g.slab[0]
	g.slab = g.slab[1:]
	return p
}

// Census is what a registry's regions hold: the bytes registered in live
// regions, the bytes of their resident (written) pages, the bytes of
// resident pages that read all zeros, and the page bytes the host holds in
// all — resident pages, the free list and the current slab's rest.
type Census struct {
	Registered, Resident, ZeroResident, Held int
}

// Census scans the live regions' pages.
func (g *Registry) Census() Census {
	c := Census{Held: g.slabs * slabPages * hostPage}
	for _, r := range g.byRKey {
		c.Registered += r.size
		for _, p := range r.pages {
			if p == nil {
				continue
			}
			c.Resident += hostPage
			if *p == zeroRef {
				c.ZeroResident += hostPage
			}
		}
	}
	return c
}

// newTable returns a page table of n entries.
func (g *Registry) newTable(n int) []*page {
	if n > tableSlab/4 {
		return make([]*page, n)
	}
	if len(g.tables) < n {
		g.tables = make([]*page, tableSlab)
	}
	t := g.tables[:n:n]
	g.tables = g.tables[n:]
	return t
}

// Register reserves and registers a region of size bytes with the given
// page size and access flags, returning the region. It allocates no bytes:
// each host page is allocated by the first write that reaches it.
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

// Deregister removes a region and returns its pages, zeroed, to the
// host's free list. Outstanding accesses to it will fail, and no view of
// it may be used afterwards: its pages back the next regions written.
func (g *Registry) Deregister(r *Region) {
	delete(g.byRKey, r.RKey)
	delete(g.byLKey, r.LKey)
	for i, p := range r.pages {
		if p != nil {
			clear(p[:])
			g.free = append(g.free, p)
			r.pages[i] = nil
		}
	}
	r.pages = nil
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

// TranslateRemote resolves an (rkey, addr, size) triple for a remote
// read or write, enforcing permissions, and returns a view of the span:
// a WriteView for a write, a ReadView for a read. The span must lie
// inside one host page (ErrCrossPage otherwise). CAS/FetchAdd targets go
// through TranslateRemoteOp with RemoteOpAtomic instead — atomics do not
// ride the write permission.
func (g *Registry) TranslateRemote(rkey uint32, addr uint64, size int, write bool) (*Region, []byte, error) {
	op := RemoteOpRead
	if write {
		op = RemoteOpWrite
	}
	return g.TranslateRemoteOp(rkey, addr, size, op)
}

// TranslateRemoteOp is RemoteRegion followed by a view of the span, which
// must lie inside one host page: a ReadView for a READ, a WriteView
// otherwise.
func (g *Registry) TranslateRemoteOp(rkey uint32, addr uint64, size int, op RemoteOp) (*Region, []byte, error) {
	r, err := g.RemoteRegion(rkey, addr, size, op)
	if err != nil {
		return nil, nil, err
	}
	b, err := r.view(addr, size, op != RemoteOpRead)
	if err != nil {
		return nil, nil, err
	}
	return r, b, nil
}

// TranslateLocal is LocalRegion followed by a WriteView of the span, which
// must lie inside one host page.
func (g *Registry) TranslateLocal(lkey uint32, addr uint64, size int) (*Region, []byte, error) {
	r, err := g.LocalRegion(lkey, addr, size)
	if err != nil {
		return nil, nil, err
	}
	b, err := r.view(addr, size, true)
	if err != nil {
		return nil, nil, err
	}
	return r, b, nil
}

// view returns a view of the in-bounds span [addr, addr+size), or
// ErrCrossPage.
func (r *Region) view(addr uint64, size int, write bool) ([]byte, error) {
	off := int(addr - r.Base)
	if off%hostPage+size > hostPage {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrCrossPage, addr, size)
	}
	if write {
		return r.WriteView(off, size), nil
	}
	return r.ReadView(off, size), nil
}
