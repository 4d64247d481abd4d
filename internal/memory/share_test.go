package memory

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestShareCopiesOnWrite: a region that shares another's units reads its
// bytes, and from then on a write through either twin — WriteAt of data or
// of zeros, within a unit or across units and pages, or a TranslateRemote
// view — never shows through the other, whichever registry each lives in.
// Each write gives the borrower its own copy of at most the units it
// spans, each twin's generation moves on its own writes only, and the
// census counts a shared unit once, with the lender.
func TestShareCopiesOnWrite(t *testing.T) {
	for _, sameHost := range []bool{true, false} {
		g := NewRegistry()
		h := g
		if !sameHost {
			h = NewRegistry()
		}
		const size = 12*hostPage + 40
		src := g.Register(size, PageSize4K, LocalWrite|RemoteWrite)
		seed := uint32(7)
		rnd := func(n int) int {
			seed = seed*1664525 + 1013904223
			return int(seed>>8) % n
		}
		refs := [2][]byte{make([]byte, size), make([]byte, size)}
		// Load src sparsely: pages 3 and 9 stay unwritten, and so do most
		// units of the others.
		for i := 0; i < 150; i++ {
			off := rnd(size - 100)
			if p := off / hostPage; p == 3 || p == 9 || (off+100)/hostPage == 3 || (off+100)/hostPage == 9 {
				continue
			}
			data := make([]byte, rnd(100)+1)
			for j := range data {
				data[j] = byte(rnd(255) + 1)
			}
			src.WriteAt(data, int64(off))
			copy(refs[0][off:], data)
		}
		loaded := census(src)
		dst := h.Register(size, PageSize4K, LocalWrite|RemoteWrite)
		gen := dst.Gen()
		dst.Share(src)
		copy(refs[1], refs[0])
		if dst.Gen() == gen {
			t.Fatal("Share did not move the borrower's generation")
		}
		if c := census(dst); c.Units != 0 || c.Tables != 0 || c.Shared != 0 {
			t.Fatalf("the borrower's census right after Share is %+v, want nothing of its own", c)
		}
		if c := census(src); c.Units != loaded.Units || c.Tables != loaded.Tables || c.Shared != loaded.Units {
			t.Fatalf("the lender's census after Share is %+v, want %+v with every unit shared", c, loaded)
		}
		if sameHost {
			if c := g.Census(); c.Units != loaded.Units || c.Shared != loaded.Units || c.Tables != loaded.Tables {
				t.Fatalf("the registry counts %+v for twins holding %+v, want each shared unit once", c, loaded)
			}
		}

		regs := [2]*Region{src, dst}
		written := map[int]bool{} // unit indices either twin wrote
		for step := 0; step < 300; step++ {
			w := rnd(2)
			r, other := regs[w], regs[1-w]
			off := rnd(size)
			switch op := rnd(10); {
			case op < 5: // WriteAt: short or long, data or zeros
				n := rnd(min(size-off, []int{16, 16, 300, hostPage + 700}[rnd(4)]) + 1)
				data := make([]byte, n)
				if rnd(4) > 0 {
					for j := range data {
						data[j] = byte(rnd(3))
					}
				}
				og := other.Gen()
				r.WriteAt(data, int64(off))
				copy(refs[w][off:], data)
				if other.Gen() != og {
					t.Fatalf("step %d: a write to one twin moved the other's generation", step)
				}
				for u := off / unitSize; u <= (off+n-1)/unitSize; u++ {
					written[u] = true
				}
			case op < 6: // a view, written through
				n := rnd(min(size-off, unitSize-off%unitSize)) + 1
				_, v, err := g.TranslateRemote(r.RKey, r.Base+uint64(off), n, true)
				if r == dst {
					_, v, err = h.TranslateRemote(r.RKey, r.Base+uint64(off), n, true)
				}
				if err != nil {
					t.Fatal(err)
				}
				for j := range v {
					v[j] = byte(step)
					refs[w][off+j] = byte(step)
				}
				written[off/unitSize] = true
			default: // read both back
				n := rnd(min(size-off, 2*hostPage)) + 1
				for i, r := range regs {
					got := make([]byte, n)
					r.ReadAt(got, int64(off))
					if !bytes.Equal(got, refs[i][off:off+n]) {
						t.Fatalf("step %d: twin %d reads [%d,+%d) wrong", step, i, off, n)
					}
					if r.ByteAt(off) != refs[i][off] {
						t.Fatalf("step %d: twin %d ByteAt(%d) wrong", step, i, off)
					}
				}
			}
		}
		for i, r := range regs {
			all := make([]byte, size)
			r.ReadAt(all, 0)
			if !bytes.Equal(all, refs[i]) {
				t.Fatalf("same host %v: twin %d diverges from its reference", sameHost, i)
			}
		}
		b, l := census(dst), census(src)
		if b.Units > len(written)*unitSize {
			t.Errorf("same host %v: the borrower holds %d units of its own, more than the %d units written", sameHost, b.Units/unitSize, len(written))
		}
		if l.Shared == 0 || l.Shared == loaded.Units {
			t.Errorf("same host %v: %d of %d loaded unit bytes still shared; the trace should leave some and copy some", sameHost, l.Shared, loaded.Units)
		}
		t.Logf("same host %v: %d units loaded, %d written, %d still shared, the borrower holds %d of its own",
			sameHost, loaded.Units/unitSize, len(written), l.Shared/unitSize, b.Units/unitSize)
	}
}

// TestShareRefusesWrittenOrTwinned: Share panics on a borrower that was
// written or differs in size, and on either side already having a twin;
// sharing an unwritten source leaves both regions untwinned.
func TestShareRefusesWrittenOrTwinned(t *testing.T) {
	g := NewRegistry()
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Share did not panic", name)
			}
		}()
		f()
	}
	src := g.Register(2*hostPage, PageSize4K, LocalWrite)
	src.WriteAt([]byte{1}, 0)
	written := g.Register(2*hostPage, PageSize4K, LocalWrite)
	written.WriteAt([]byte{1}, 5)
	panics("written borrower", func() { written.Share(src) })
	panics("other size", func() { g.Register(3*hostPage, PageSize4K, LocalWrite).Share(src) })
	dst := g.Register(2*hostPage, PageSize4K, LocalWrite)
	dst.Share(src)
	panics("lender with a twin", func() { g.Register(2*hostPage, PageSize4K, LocalWrite).Share(src) })
	panics("borrower with a twin", func() { dst.Share(g.Register(2*hostPage, PageSize4K, LocalWrite)) })

	blank := g.Register(hostPage, PageSize4K, LocalWrite)
	r := g.Register(hostPage, PageSize4K, LocalWrite)
	r.Share(blank)
	if r.twin != nil || blank.twin != nil {
		t.Error("sharing an unwritten region made twins")
	}
}

// BenchmarkOneUnit: a 64-byte ReadAt and WriteAt inside one written unit,
// the shape of most mica and pool accesses.
func BenchmarkOneUnit(b *testing.B) {
	g := NewRegistry()
	r := g.Register(4*hostPage, PageSize4K, LocalWrite)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	r.WriteAt(buf, 0x1040)
	b.Run("read64", func(b *testing.B) {
		for range b.N {
			r.ReadAt(buf, 0x1040)
		}
	})
	b.Run("write64", func(b *testing.B) {
		for range b.N {
			r.WriteAt(buf, 0x1040)
		}
	})
}

// TestRegionRecordSize: the twin link fits the region record in the same
// 80-byte size class as before it, so a host of many small pool regions
// pays nothing for sharing it does not use.
func TestRegionRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Region{}); n != 80 {
		t.Fatalf("a Region is %d bytes, want 80", n)
	}
}
