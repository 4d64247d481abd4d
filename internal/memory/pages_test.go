package memory

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// census returns what r holds; Held is left zero.
func census(r *Region) Census {
	var c Census
	r.census(&c)
	return c
}

// resident returns the bytes of r's resident units and whole pages.
func resident(r *Region) int { return census(r).Resident() }

// TestAllocBudgetRegionPages: probing, reading, decoding and zeroing units
// nothing wrote allocates nothing and leaves them unwritten — what a
// server's Valid probes, an empty poll and rpcwire.Pool.Clear do to a pool
// block nobody wrote — and, once the region's page table exists, writing N
// fresh units costs at most ⌈N/slabUnits⌉ unit mallocs and giving M fresh
// pages their unit tables at most ⌈M/slabTables⌉ table mallocs.
func TestAllocBudgetRegionPages(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // slabMallocs needs every allocation recorded
	g := NewRegistry()
	r := g.Register(1<<20, PageSize2M, LocalWrite|RemoteWrite)
	r.WriteAt([]byte{1}, int64(r.Len()-1)) // one written unit: the page table exists
	var buf [hostPage + 100]byte
	zero := make([]byte, 64)
	probe := func() {
		for off := 0; off+len(buf) < r.Len(); off += hostPage {
			if r.ReadView(off+hostPage-1, 1) != nil {
				t.Fatal("a view of an unwritten page is not nil")
			}
			if r.ByteAt(off+hostPage-1) != 0 || r.ByteAt(off+7) != 0 {
				t.Fatal("an unwritten byte reads non-zero")
			}
			r.ReadAt(buf[:], int64(off))
			r.WriteAt(zero, int64(off+hostPage-32)) // crosses into the next page
			r.WriteAt(zero[:1], int64(off+hostPage-1))
		}
	}
	if got := testing.AllocsPerRun(10, probe); got != 0 {
		t.Errorf("%v allocs per pass of probes, reads and zero writes over unwritten units, want 0", got)
	}
	if c := census(r); c.Units != unitSize || c.Pages != 0 {
		t.Errorf("views, reads and zero writes left census %+v, want the one %d-byte unit written and no whole page", c, unitSize)
	}

	for _, n := range []int{1, 255, 256, 257, 600} {
		g := NewRegistry()
		pages := (n + pageUnits - 1) / pageUnits
		r := g.Register(2*pages*hostPage+hostPage, PageSize2M, LocalWrite)
		r.WriteAt([]byte{1}, 0) // the page table and the first slabs
		first := 1
		// write gives pages [first, first+pages) their unit tables, then
		// writes one byte into each of n fresh units of them.
		write := func() {
			for i := 0; i < n; i++ {
				r.WriteAt([]byte{byte(i%255 + 1)}, int64(first*hostPage+i*unitSize+i%unitSize))
			}
			first += pages
		}
		write() // fill the write path's own first-use state
		before := slabMallocs()
		write()
		got := slabMallocs()
		if units, want := got[slabUnits*unitSize]-before[slabUnits*unitSize], int64((n+slabUnits-1)/slabUnits); units > want {
			t.Errorf("writing %d fresh units: %d unit mallocs, want at most %d", n, units, want)
		}
		if tables, want := got[tableChunk]-before[tableChunk], int64((pages+slabTables-1)/slabTables); tables > want {
			t.Errorf("%d fresh pages: %d unit-table mallocs, want at most %d", pages, tables, want)
		}
		if pg := got[slabPages*hostPage] - before[slabPages*hostPage]; pg != 0 {
			t.Errorf("writing %d fresh units allocated %d page slabs, want 0", n, pg)
		}
		if c := census(r); c.Units != (2*n+1)*unitSize || c.Pages != 0 {
			t.Errorf("after %d fresh units twice: census %+v, want %d unit bytes and no whole page", n, c, (2*n+1)*unitSize)
		}
	}
}

// TestReadAtWriteAtCrossPages interleaves ReadAt, WriteAt, ByteAt,
// ReadView and WriteView at every alignment and length around unit and page
// boundaries, byte-exact against a contiguous reference of the region;
// ReadView may be nil only for a page the trace never wrote a non-zero
// byte to nor viewed for writing. Zeros are frequent, so zero writes land
// on unwritten units, and views are rare, so pages holding several units
// get promoted. The trace moves to a new region now and then, so it runs
// on the units and unit tables promotion returned too.
func TestReadAtWriteAtCrossPages(t *testing.T) {
	g := NewRegistry()
	const size = 9*hostPage + 123
	r := g.Register(size, PageSize4K, LocalWrite)
	ref := make([]byte, size)
	seed := uint32(1)
	rnd := func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % n
	}
	var promoted, zeroOnUnwritten, nilViews int
	var written [size/hostPage + 1]bool
	for step := 0; step < 6000; step++ {
		if step%400 == 399 { // start over on recycled units and unit tables
			r = g.Register(size, PageSize4K, LocalWrite)
			clear(ref)
			written = [len(written)]bool{}
		}
		off := rnd(size)
		switch op := rnd(100); {
		case op < 45: // WriteAt, mostly short
			n := rnd(min(size-off, []int{40, 600, 2*hostPage + 17}[rnd(3)]) + 1)
			data := make([]byte, n)
			if rnd(6) > 0 { // else all zeros
				for i := range data {
					data[i] = byte(rnd(4)) // zeros are frequent: zero chunks must land too
				}
			}
			if _, tb := r.backing(off >> pageShift); allZero(data) && n > 0 && tb != nil && tb[off&(hostPage-1)>>unitShift] == nil {
				zeroOnUnwritten++
			}
			if _, err := r.WriteAt(data, int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(ref[off:], data)
			for i, b := range data {
				if b != 0 {
					written[(off+i)/hostPage] = true
				}
			}
		case op < 80: // ReadAt
			got := make([]byte, rnd(size-off))
			if _, err := r.ReadAt(got, int64(off)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref[off:off+len(got)]) {
				t.Fatalf("step %d: ReadAt(%d, +%d) diverges from the reference", step, off, len(got))
			}
		case op < 96: // ByteAt
			if r.ByteAt(off) != ref[off] {
				t.Fatalf("step %d: ByteAt(%d) = %d, want %d", step, off, r.ByteAt(off), ref[off])
			}
		default: // a view of up to a page, read or written
			n := rnd(min(size-off, hostPage-off%hostPage)) + 1
			if _, tb := r.backing(off >> pageShift); tb != nil && unitsIn(tb) > 1 {
				promoted++
			}
			if op < 98 {
				v := r.ReadView(off, n)
				if v == nil && !written[off/hostPage] {
					nilViews++
					v = make([]byte, n)
				}
				if !bytes.Equal(v, ref[off:off+n]) {
					t.Fatalf("step %d: ReadView(%d, %d) diverges from the reference", step, off, n)
				}
			} else {
				written[off/hostPage] = true
				v := r.WriteView(off, n)
				if !bytes.Equal(v, ref[off:off+n]) {
					t.Fatalf("step %d: WriteView(%d, %d) diverges from the reference", step, off, n)
				}
				v[n/2]++
				ref[off+n/2]++
			}
		}
	}
	if promoted == 0 || zeroOnUnwritten == 0 || nilViews == 0 {
		t.Fatalf("the trace promoted %d multi-unit pages, wrote zeros to %d unwritten units and took %d nil views of unwritten pages, want all > 0", promoted, zeroOnUnwritten, nilViews)
	}
	all := make([]byte, size)
	r.ReadAt(all, 0)
	if !bytes.Equal(all, ref) {
		t.Fatal("the region diverges from the reference")
	}
	if c := census(r); c.ZeroResident != 0 {
		t.Errorf("census %+v: resident bytes that read all zeros", c)
	}
	if _, err := r.WriteAt(make([]byte, 2), size-1); err == nil {
		t.Fatal("WriteAt past the end succeeded")
	}
}

func unitsIn(t *unitTable) int {
	n := 0
	for _, u := range t {
		if u != nil {
			n++
		}
	}
	return n
}

// TestUnitsThenWholePage: a short write costs one unit, a zero write to an
// unwritten unit costs nothing, and the first view of the page moves its
// units into one whole page and returns them; a view taken then stays live
// and sees later WriteAts. A region makes its table of whole pages only
// when it first backs a page whole, and its table of unit tables only when
// it first writes a unit.
func TestUnitsThenWholePage(t *testing.T) {
	g := NewRegistry()
	r := g.Register(2*hostPage, PageSize4K, LocalWrite)
	r.WriteAt([]byte("tail"), hostPage-4)
	r.WriteAt([]byte("head"), 300)
	r.WriteAt(make([]byte, 100), 700) // zeros into an unwritten unit
	if c := census(r); c.Units != 2*unitSize || c.Pages != 0 || c.Tables != int(unsafe.Sizeof(unitTable{})) {
		t.Fatalf("census %+v, want two units in one unit table and no whole page", c)
	}
	if r.pages != nil {
		t.Fatal("a region holding only units has a table of whole pages")
	}
	if r.ByteAt(300) != 'h' || r.ByteAt(hostPage-1) != 'l' || r.ByteAt(0) != 0 {
		t.Fatal("ByteAt misreads a unit-backed page")
	}
	v := r.ReadView(200, 200)
	if string(v[100:104]) != "head" {
		t.Fatalf("the view reads %q, want the unit's bytes", v[100:104])
	}
	if c := census(r); c.Units != 0 || c.Pages != hostPage || c.Tables != 0 {
		t.Fatalf("census %+v after the view, want one whole page and no unit or unit table", c)
	}
	if len(g.units.free) != 2 || len(g.tables.free) != 1 {
		t.Fatalf("%d units and %d unit tables returned, want 2 and 1", len(g.units.free), len(g.tables.free))
	}
	for _, u := range g.units.free {
		if *u != (unit{}) {
			t.Fatal("a returned unit is not zeroed")
		}
	}
	if *g.tables.free[0] != (unitTable{}) {
		t.Fatal("a returned unit table is not cleared")
	}
	r.WriteAt([]byte("live"), 250)
	if string(v[50:54]) != "live" {
		t.Fatal("a view taken at promotion does not see a later WriteAt")
	}
	tail := make([]byte, 4)
	r.ReadAt(tail, hostPage-4)
	if string(tail) != "tail" {
		t.Fatalf("the promoted page reads %q at its end, want %q", tail, "tail")
	}
	if &r.WriteView(300, 1)[0] != &v[100] {
		t.Fatal("a later view of the promoted page is a different backing array")
	}
	w := g.Register(hostPage, PageSize4K, LocalWrite)
	w.WriteView(0, 1)[0] = 1
	if w.units != nil {
		t.Fatal("a region holding only a whole page has a table of unit tables")
	}
	r.WriteAt([]byte{9}, hostPage+5) // the next page stays in units
	if c := census(r); c.Units != unitSize || c.Pages != hostPage {
		t.Fatalf("census %+v, want one unit beside the whole page", c)
	}
}

// TestViewsStayInOnePage: a view may not cross a backing page, and one
// that does panics rather than returning bytes from two unrelated pages.
func TestViewsStayInOnePage(t *testing.T) {
	g := NewRegistry()
	r := g.Register(2*hostPage, PageSize4K, LocalWrite|RemoteWrite)
	for _, view := range []func(int, int) []byte{r.ReadView, r.WriteView} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a view across a page boundary did not panic")
				}
			}()
			view(hostPage-4, 8)
		}()
	}
	if _, _, err := g.TranslateRemote(r.RKey, r.Base+hostPage-4, 8, true); !errors.Is(err, ErrCrossPage) {
		t.Errorf("TranslateRemote across a page boundary: err = %v, want ErrCrossPage", err)
	}
}

// TestViewsAreLive: every view ReadView or WriteView hands out is the
// region's bytes in place, so it sees a later WriteAt. ReadView of a page
// nothing has written — here one no write reached and one only zeros
// reached — is nil rather than a copy of zeros.
func TestViewsAreLive(t *testing.T) {
	g := NewRegistry()
	r := g.Register(4*hostPage, PageSize4K, LocalWrite)
	r.WriteAt([]byte{7}, hostPage+10)       // page 1 in units
	r.WriteView(2*hostPage, 1)              // page 2 whole
	r.WriteAt(make([]byte, 64), 3*hostPage) // page 3 still unwritten
	type view struct {
		b   []byte
		off int
	}
	var views []view
	take := func(v []byte, off int) {
		if v != nil {
			views = append(views, view{v, off})
		}
	}
	var isNil [4]bool
	for i := range isNil {
		v := r.ReadView(i*hostPage+100, 8)
		isNil[i] = v == nil
		take(v, i*hostPage+100)
	}
	for i := 0; i < 4; i++ {
		take(r.WriteView(i*hostPage+200, 8), i*hostPage+200)
		take(r.ReadView(i*hostPage+300, 8), i*hostPage+300)
	}
	data := make([]byte, r.Len())
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	r.WriteAt(data, 0)
	for _, v := range views {
		if !bytes.Equal(v.b, data[v.off:v.off+len(v.b)]) {
			t.Fatalf("the view at %d reads %v after WriteAt, want %v", v.off, v.b, data[v.off:v.off+len(v.b)])
		}
	}
	if isNil != [4]bool{true, false, false, true} {
		t.Fatalf("ReadView of each page before any view backed it: nil = %v, want only the unwritten pages 0 and 3", isNil)
	}
}

// TestDeregisteredViewKeepsItsBytes: Deregister drops a region's keys but
// hands none of its bytes to another region, so a view taken before it
// still reads them after a new region is registered and written.
func TestDeregisteredViewKeepsItsBytes(t *testing.T) {
	g := NewRegistry()
	a := g.Register(2*hostPage, PageSize4K, LocalWrite|RemoteRead)
	a.WriteAt(bytes.Repeat([]byte{0xEE}, 2*hostPage), 0)
	va, wa := a.ReadView(8, 64), a.WriteView(hostPage, hostPage)
	g.Deregister(a)
	if _, err := g.RemoteRegion(a.RKey, a.Base, 8, RemoteOpRead); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v, want ErrBadKey after Deregister", err)
	}
	b := g.Register(2*hostPage, PageSize4K, LocalWrite)
	b.WriteView(0, 1)
	b.WriteAt(bytes.Repeat([]byte{0x11}, 2*hostPage), 0)
	b.ReadView(hostPage, 1)
	if !bytes.Equal(va, bytes.Repeat([]byte{0xEE}, len(va))) || !bytes.Equal(wa, bytes.Repeat([]byte{0xEE}, len(wa))) {
		t.Fatal("a view of the deregistered region lost its bytes to the next region written")
	}
	if &b.ReadView(8, 1)[0] == &va[0] || &b.ReadView(hostPage, 1)[0] == &wa[0] {
		t.Fatal("the next region shares a page with the deregistered one")
	}
}

// tableChunk is the size of one unit-table slab malloc.
const tableChunk = slabTables * pageUnits * 8

// slabMallocs returns, by object size, how many objects have been
// allocated so far by call stacks through the backing slabs, from the
// runtime's allocation profile (MemProfileRate must be 1), which leaves out
// what the runtime and the test itself allocate meanwhile. A page chunk is
// slabPages*hostPage bytes, a unit chunk slabUnits*unitSize and a
// unit-table chunk tableChunk.
func slabMallocs() map[int64]int64 {
	runtime.GC() // the profile trails by up to two collection cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	total := map[int64]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "memory.(*slab[") && r.AllocObjects > 0 {
				total[r.AllocBytes/r.AllocObjects] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
