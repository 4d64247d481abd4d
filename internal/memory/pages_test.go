package memory

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// resident returns the bytes of r's written pages.
func resident(r *Region) int {
	n := 0
	for _, p := range r.pages {
		if p != nil {
			n += hostPage
		}
	}
	return n
}

// TestAllocBudgetRegionPages: probing, reading and zeroing pages nothing
// wrote allocates nothing and leaves them unwritten — what a server's Valid
// probes, an empty poll and rpcwire.Pool.Clear do to a pool block nobody
// wrote — and writing N fresh pages costs at most ⌈N/64⌉ mallocs, one per
// slab, once the region's page table exists.
func TestAllocBudgetRegionPages(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // pageAllocs needs every allocation recorded
	g := NewRegistry()
	r := g.Register(1<<20, PageSize2M, LocalWrite|RemoteWrite)
	var buf [hostPage + 100]byte
	zero := make([]byte, 64)
	probe := func() {
		for off := 0; off+len(buf) <= r.Len(); off += hostPage {
			if r.ReadView(off+hostPage-1, 1)[0] != 0 || r.ByteAt(off+7) != 0 {
				t.Fatal("an unwritten byte reads non-zero")
			}
			r.ReadAt(buf[:], int64(off))
			r.WriteAt(zero, int64(off+hostPage-32)) // crosses into the next page
		}
	}
	if got := testing.AllocsPerRun(10, probe); got != 0 {
		t.Errorf("%v allocs per pass of probes, reads and zero writes over unwritten pages, want 0", got)
	}
	if n := resident(r); n != 0 {
		t.Errorf("reads and zero writes made %d bytes resident, want 0", n)
	}

	for _, n := range []int{1, 63, 64, 65, 130} {
		g := NewRegistry()
		r := g.Register(2*n*hostPage+hostPage, PageSize2M, LocalWrite)
		r.WriteAt([]byte{1}, 0) // the page table and the first slab
		next := 1
		write := func() {
			for i := 0; i < n; i++ {
				r.WriteAt([]byte{byte(i + 1)}, int64(next*hostPage+i%hostPage))
				next++
			}
		}
		write() // fill the write path's own first-use state
		before := pageAllocs()
		write()
		want := int64((n + slabPages - 1) / slabPages)
		if got := pageAllocs() - before; got > want {
			t.Errorf("writing %d fresh pages: %d page mallocs, want at most %d", n, got, want)
		}
		if got := resident(r); got != (2*n+1)*hostPage {
			t.Errorf("after %d fresh pages twice: %d bytes resident, want %d", n, got, (2*n+1)*hostPage)
		}
	}
}

// TestReadAtWriteAtCrossPages moves spans of every alignment and length
// around page boundaries through WriteAt, ReadAt and views, byte-exact
// against a contiguous reference of the region.
func TestReadAtWriteAtCrossPages(t *testing.T) {
	g := NewRegistry()
	const size = 5*hostPage + 123
	r := g.Register(size, PageSize4K, LocalWrite)
	ref := make([]byte, size)
	seed := uint32(1)
	rnd := func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % n
	}
	for step := 0; step < 2000; step++ {
		off := rnd(size)
		n := rnd(min(size-off, 2*hostPage+17) + 1)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rnd(4)) // zeros are frequent: zero chunks must land too
		}
		if _, err := r.WriteAt(data, int64(off)); err != nil {
			t.Fatal(err)
		}
		copy(ref[off:], data)
		got := make([]byte, rnd(size-off))
		if _, err := r.ReadAt(got, int64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[off:off+len(got)]) {
			t.Fatalf("step %d: ReadAt(%d, +%d) diverges from the reference", step, off, len(got))
		}
		if po := off % hostPage; po+8 <= hostPage && off+8 <= size {
			if !bytes.Equal(r.ReadView(off, 8), ref[off:off+8]) {
				t.Fatalf("step %d: ReadView(%d, 8) diverges from the reference", step, off)
			}
		}
	}
	all := make([]byte, size)
	r.ReadAt(all, 0)
	if !bytes.Equal(all, ref) {
		t.Fatal("the region diverges from the reference")
	}
	if _, err := r.WriteAt(make([]byte, 2), size-1); err == nil {
		t.Fatal("WriteAt past the end succeeded")
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

// TestDeregisterRecyclesZeroedPages: a deregistered region's pages go back
// to the host zeroed, and the next region written takes them instead of
// new ones.
func TestDeregisterRecyclesZeroedPages(t *testing.T) {
	g := NewRegistry()
	a := g.Register(4*hostPage, PageSize4K, LocalWrite)
	old := map[*page]bool{}
	for i := 0; i < 4; i++ {
		a.WriteAt(bytes.Repeat([]byte{0xEE}, hostPage), int64(i*hostPage))
		old[a.pages[i]] = true
	}
	g.Deregister(a)
	b := g.Register(4*hostPage, PageSize4K, LocalWrite)
	for i := 0; i < 4; i++ {
		if v := b.WriteView(i*hostPage, hostPage); !bytes.Equal(v, zeroRef[:]) {
			t.Fatalf("recycled page %d is not zeroed", i)
		}
		if !old[b.pages[i]] {
			t.Errorf("page %d of the new region is not one the deregistered region returned", i)
		}
	}
	if c := g.Census(); c.Held != slabPages*hostPage || c.Resident != 4*hostPage {
		t.Errorf("census %+v, want one slab held and four pages resident", c)
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

// pageAllocs returns how many objects have been allocated so far by call
// stacks through Region.page, from the runtime's allocation profile
// (MemProfileRate must be 1), which leaves out what the runtime and the
// test itself allocate meanwhile.
func pageAllocs() int64 {
	runtime.GC() // the profile trails by up to two collection cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, "memory.(*Region).page") {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
