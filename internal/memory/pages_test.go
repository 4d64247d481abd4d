package memory

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// census returns what r holds; Held is left zero.
func census(r *Region) Census {
	var c Census
	r.census(&c)
	return c
}

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
	if c := census(r); c.Units != unitSize {
		t.Errorf("probes, reads and zero writes left census %+v, want the one %d-byte unit written", c, unitSize)
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
		if c := census(r); c.Units != (2*n+1)*unitSize {
			t.Errorf("after %d fresh units twice: census %+v, want %d unit bytes", n, c, (2*n+1)*unitSize)
		}
	}
}

// TestReadAtWriteAtCrossPages interleaves ReadAt, WriteAt and ByteAt at
// every alignment and length around unit and page boundaries, byte-exact
// against a contiguous reference of the region. Zeros are frequent, so
// zero writes land on unwritten units. The trace moves to a new region now
// and then.
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
	var zeroOnUnwritten int
	for step := 0; step < 6000; step++ {
		if step%400 == 399 {
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
			if allZero(data) && n > 0 && r.unitAt(off) == nil {
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
		default: // ByteAt
			if r.ByteAt(off) != ref[off] {
				t.Fatalf("step %d: ByteAt(%d) = %d, want %d", step, off, r.ByteAt(off), ref[off])
			}
		}
	}
	if zeroOnUnwritten == 0 {
		t.Fatal("the trace wrote zeros to no unwritten unit")
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

// TestViewsStayInOnePage: TranslateRemote's view is one unit's bytes in
// place, so a span across a unit — and so across a page — is refused.
// Taking a view, for a read or a write, allocates its unit and moves the
// generation, since the caller may write through either.
func TestViewsStayInOnePage(t *testing.T) {
	g := NewRegistry()
	r := g.Register(2*hostPage, PageSize4K, RemoteRead|RemoteWrite)
	for _, at := range []int{hostPage - 4, unitSize - 4} {
		if _, _, err := g.TranslateRemote(r.RKey, r.Base+uint64(at), 8, true); !errors.Is(err, ErrCrossUnit) {
			t.Errorf("TranslateRemote across a unit boundary at %d: err = %v, want ErrCrossUnit", at, err)
		}
	}
	for i, write := range []bool{false, true} {
		gen := r.Gen()
		_, v, err := g.TranslateRemote(r.RKey, r.Base+uint64(64+i*unitSize), 64, write)
		if err != nil || len(v) != 64 || r.Gen() == gen || census(r).Units != (i+1)*unitSize {
			t.Fatalf("view (write %v): %d bytes, %v, gen %d → %d, census %+v; want 64 bytes of one new unit and a new generation", write, len(v), err, gen, r.Gen(), census(r))
		}
		copy(v, "in place")
		if r.ByteAt(64+i*unitSize) != 'i' {
			t.Fatalf("view (write %v) is not the region's bytes in place", write)
		}
	}
}

// tableChunk is the size of one unit-table slab malloc.
const tableChunk = slabTables * pageUnits * 8

// slabMallocs returns, by object size, how many objects have been
// allocated so far by call stacks through the backing slabs, from the
// runtime's allocation profile (MemProfileRate must be 1), which leaves out
// what the runtime and the test itself allocate meanwhile. A unit chunk is
// slabUnits*unitSize bytes and a unit-table chunk tableChunk.
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
