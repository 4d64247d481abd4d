package memory

import (
	"bytes"
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
			if r.ReadView(off+hostPage-1, 1)[0] != 0 || r.ByteAt(off+hostPage-1) != 0 || r.ByteAt(off+7) != 0 {
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
// boundaries, byte-exact against a contiguous reference of the region.
// Zeros are frequent, so zero writes land on unwritten units, and views are
// rare, so pages holding several units get promoted. The region is
// deregistered and registered anew now and then, so the trace runs on
// recycled units and pages too.
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
	var promoted, zeroOnUnwritten int
	for step := 0; step < 6000; step++ {
		if step%400 == 399 { // start over on recycled backing
			g.Deregister(r)
			r = g.Register(size, PageSize4K, LocalWrite)
			clear(ref)
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
				if !bytes.Equal(r.ReadView(off, n), ref[off:off+n]) {
					t.Fatalf("step %d: ReadView(%d, %d) diverges from the reference", step, off, n)
				}
			} else {
				v := r.WriteView(off, n)
				if !bytes.Equal(v, ref[off:off+n]) {
					t.Fatalf("step %d: WriteView(%d, %d) diverges from the reference", step, off, n)
				}
				v[n/2]++
				ref[off+n/2]++
			}
		}
	}
	if promoted == 0 || zeroOnUnwritten == 0 {
		t.Fatalf("the trace promoted %d multi-unit pages and wrote zeros to %d unwritten units, want both > 0", promoted, zeroOnUnwritten)
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
	r := g.Register(2*hostPage, PageSize4K, LocalWrite)
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
	if _, _, err := g.TranslateLocal(r.LKey, r.Base+hostPage-4, 8); err == nil {
		t.Error("TranslateLocal across a page boundary succeeded")
	}
}

// TestDeregisterRecyclesZeroedPages: a deregistered region's units, unit tables
// and pages go back to the host zeroed, and the next region written takes
// them instead of new ones.
func TestDeregisterRecyclesZeroedPages(t *testing.T) {
	g := NewRegistry()
	a := g.Register(8*hostPage, PageSize4K, LocalWrite)
	oldPages, oldUnits, oldTables := map[*page]bool{}, map[*unit]bool{}, map[*unitTable]bool{}
	for i := 0; i < 4; i++ {
		a.WriteAt(bytes.Repeat([]byte{0xEE}, hostPage), int64(i*hostPage))
		a.WriteView(i*hostPage, 1)
		oldPages[a.pages[i]] = true
	}
	for i := 4; i < 8; i++ {
		a.WriteAt([]byte{0xEE, 0xEE}, int64(i*hostPage+unitSize-1)) // two units
		oldTables[a.units[i]] = true
		for _, u := range a.units[i] {
			if u != nil {
				oldUnits[u] = true
			}
		}
	}
	held := g.Census().Held
	g.Deregister(a)
	if c := g.Census(); c.Resident() != 0 || c.Held != held {
		t.Fatalf("census %+v after deregistering, want nothing resident and %d bytes still held", c, held)
	}
	for _, p := range g.pages.free {
		if *p != zeroRef {
			t.Fatal("a returned page is not zeroed")
		}
	}
	for _, u := range g.units.free {
		if *u != (unit{}) {
			t.Fatal("a returned unit is not zeroed")
		}
	}
	for _, tb := range g.tables.free {
		if *tb != (unitTable{}) {
			t.Fatal("a returned unit table is not cleared")
		}
	}
	b := g.Register(8*hostPage, PageSize4K, LocalWrite)
	for i := 0; i < 4; i++ {
		if v := b.WriteView(i*hostPage, hostPage); !bytes.Equal(v, zeroRef[:]) {
			t.Fatalf("recycled page %d is not zeroed", i)
		}
		if !oldPages[b.pages[i]] {
			t.Errorf("page %d of the new region is not one the deregistered region returned", i)
		}
	}
	for i := 4; i < 8; i++ {
		b.WriteAt([]byte{1, 1}, int64(i*hostPage+unitSize-1))
		if !oldTables[b.units[i]] {
			t.Errorf("page %d's unit table is not one the deregistered region returned", i)
		}
		for k, u := range b.units[i] {
			if u != nil && !oldUnits[u] {
				t.Errorf("unit %d of page %d is not one the deregistered region returned", k, i)
			}
		}
	}
	if c := g.Census(); c.Held != held || c.Pages != 4*hostPage || c.Units != 8*unitSize || c.Tables != 4*int(unsafe.Sizeof(unitTable{})) {
		t.Errorf("census %+v, want %d bytes held, four pages and eight units in four unit tables resident", c, held)
	}
}

// TestGuardCatchesWriteThroughZeroView: a read view of an unwritten page
// is the shared zero page. With Guard on, a write through it panics when
// those bytes are next viewed — here from another region, which would
// otherwise read the stray byte.
func TestGuardCatchesWriteThroughZeroView(t *testing.T) {
	defer func(was bool) { Guard = was }(Guard)
	Guard = true
	g := NewRegistry()
	a := g.Register(hostPage, PageSize4K, LocalWrite)
	b := g.Register(hostPage, PageSize4K, LocalWrite)
	v := a.ReadView(64, 8)
	if &v[0] != &zeroPage[64] {
		t.Fatal("a read view of an unwritten page is not the shared zero page")
	}
	v[3] = 0x5A // the bug: writing through a read view
	defer func() { zeroPage[64+3] = 0 }()
	defer func() {
		if recover() == nil {
			t.Fatal("Guard did not catch the write through the shared zero page")
		}
	}()
	b.ReadView(60, 16)
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
