package memory

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"
)

func TestRegisterAndTranslate(t *testing.T) {
	g := NewRegistry()
	r := g.Register(4096, PageSize4K, LocalWrite|RemoteRead|RemoteWrite)
	if r.Base == 0 {
		t.Fatal("region base must be nonzero")
	}
	if r.Len() != 4096 {
		t.Fatalf("Len = %d", r.Len())
	}
	_, b, err := g.TranslateRemote(r.RKey, r.Base+100, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, []byte("hello"))
	got := make([]byte, 5)
	r.ReadAt(got, 100)
	if string(got) != "hello" {
		t.Fatal("translated slice does not alias the region")
	}
}

func TestTranslateBadKey(t *testing.T) {
	g := NewRegistry()
	_, _, err := g.TranslateRemote(999, 0, 1, false)
	if !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v, want ErrBadKey", err)
	}
}

func TestTranslateOutOfBounds(t *testing.T) {
	g := NewRegistry()
	r := g.Register(128, PageSize4K, RemoteRead|RemoteWrite)
	if _, _, err := g.TranslateRemote(r.RKey, r.Base+120, 16, false); !errors.Is(err, ErrOutOfband) {
		t.Fatalf("err = %v, want ErrOutOfband", err)
	}
	if _, _, err := g.TranslateRemote(r.RKey, r.Base-1, 1, false); !errors.Is(err, ErrOutOfband) {
		t.Fatalf("err = %v, want ErrOutOfband", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	g := NewRegistry()
	ro := g.Register(64, PageSize4K, RemoteRead)
	if _, _, err := g.TranslateRemote(ro.RKey, ro.Base, 8, true); !errors.Is(err, ErrPerm) {
		t.Fatalf("write to read-only region: err = %v, want ErrPerm", err)
	}
	wo := g.Register(64, PageSize4K, RemoteWrite)
	if _, _, err := g.TranslateRemote(wo.RKey, wo.Base, 8, false); !errors.Is(err, ErrPerm) {
		t.Fatalf("read of write-only region: err = %v, want ErrPerm", err)
	}
}

func TestRemoteOpPermissions(t *testing.T) {
	g := NewRegistry()
	cases := []struct {
		name  string
		flags Access
		op    RemoteOp
		ok    bool
	}{
		{"read-granted", RemoteRead, RemoteOpRead, true},
		{"read-denied", RemoteWrite | RemoteAtomic, RemoteOpRead, false},
		{"write-granted", RemoteWrite, RemoteOpWrite, true},
		{"write-denied", RemoteRead | RemoteAtomic, RemoteOpWrite, false},
		{"atomic-granted", RemoteAtomic, RemoteOpAtomic, true},
		// Atomics must not ride the write permission: a region opened
		// for RemoteWrite only still rejects CAS/FetchAdd.
		{"atomic-denied-write-only", RemoteRead | RemoteWrite, RemoteOpAtomic, false},
		{"atomic-denied-read-only", RemoteRead, RemoteOpAtomic, false},
		{"all-atomic", RemoteRead | RemoteWrite | RemoteAtomic, RemoteOpAtomic, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := g.Register(64, PageSize4K, tc.flags)
			_, err := g.RemoteRegion(r.RKey, r.Base, 8, tc.op)
			if tc.ok && err != nil {
				t.Fatalf("%s on %v region: unexpected error %v", tc.op, tc.flags, err)
			}
			if !tc.ok && !errors.Is(err, ErrPerm) {
				t.Fatalf("%s on %v region: err = %v, want ErrPerm", tc.op, tc.flags, err)
			}
		})
	}
}

func TestTranslateRemoteDelegates(t *testing.T) {
	g := NewRegistry()
	r := g.Register(64, PageSize4K, RemoteRead|RemoteWrite)
	if _, _, err := g.TranslateRemote(r.RKey, r.Base, 8, false); err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, _, err := g.TranslateRemote(r.RKey, r.Base, 8, true); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	g := NewRegistry()
	r := g.Register(64, PageSize4K, RemoteRead)
	g.Deregister(r)
	if _, _, err := g.TranslateRemote(r.RKey, r.Base, 8, false); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v, want ErrBadKey after deregister", err)
	}
}

func TestPagesAndPageOf(t *testing.T) {
	g := NewRegistry()
	r := g.Register(3*PageSize4K+1, PageSize4K, RemoteRead)
	if r.Pages() != 4 {
		t.Fatalf("Pages = %d, want 4", r.Pages())
	}
	if r.PageOf(r.Base) != 0 || r.PageOf(r.Base+PageSize4K) != 1 {
		t.Fatal("PageOf wrong")
	}
	huge := g.Register(8<<20, PageSize2M, RemoteRead)
	if huge.Pages() != 4 {
		t.Fatalf("huge Pages = %d, want 4", huge.Pages())
	}
}

func TestRegionsDontOverlap(t *testing.T) {
	g := NewRegistry()
	a := g.Register(1<<20, PageSize4K, RemoteRead)
	b := g.Register(1<<20, PageSize4K, RemoteRead)
	aEnd := a.Base + uint64(a.Len())
	if b.Base < aEnd {
		t.Fatalf("regions overlap: a=[%#x,%#x) b starts %#x", a.Base, aEnd, b.Base)
	}
}

func TestLocalRegion(t *testing.T) {
	g := NewRegistry()
	r := g.Register(256, PageSize4K, LocalWrite)
	if got, err := g.LocalRegion(r.LKey, r.Base+10, 5); err != nil || got != r {
		t.Fatalf("LocalRegion: %v, region %p, want %p", err, got, r)
	}
	if _, err := g.LocalRegion(12345, r.Base, 1); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v, want ErrBadKey", err)
	}
	if _, err := g.LocalRegion(r.LKey, r.Base+250, 8); !errors.Is(err, ErrOutOfband) {
		t.Fatalf("err = %v, want ErrOutOfband", err)
	}
}

// TestAllocBudgetRegisterIsAddressOnly: registration reserves an address
// range and keys; a region's bytes wait for its first Bytes or Slice call,
// so a region only the cache, PCIe and MTT models address costs no memory.
func TestAllocBudgetRegisterIsAddressOnly(t *testing.T) {
	g := NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := g.Register(1<<30, PageSize2M, LocalWrite|RemoteRead|RemoteWrite)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("registering a 1 GiB region grew the heap by %d bytes, want < 1 MiB", grew)
	}
}

// TestRegionGeometryWithoutBytes pins what registration promises before any
// byte is touched: Len, Pages, the spacing of the next region's Base and
// the out-of-band bounds, none of which allocates the region's bytes.
func TestRegionGeometryWithoutBytes(t *testing.T) {
	cases := []struct{ size, page int }{
		{1, PageSize4K}, {PageSize4K, PageSize4K}, {3*PageSize4K + 1, PageSize4K},
		{PageSize2M, PageSize2M}, {8<<20 + 1, PageSize2M}, {PageSize1G, PageSize1G},
	}
	for _, tc := range cases {
		g := NewRegistry()
		r := g.Register(tc.size, tc.page, RemoteRead|RemoteWrite)
		next := g.Register(64, PageSize4K, RemoteRead)
		if r.Len() != tc.size {
			t.Errorf("%d B: Len = %d", tc.size, r.Len())
		}
		if want := (tc.size + tc.page - 1) / tc.page; r.Pages() != want {
			t.Errorf("%d B on %d B pages: Pages = %d, want %d", tc.size, tc.page, r.Pages(), want)
		}
		if want := uint64(tc.size/tc.page+2) * uint64(tc.page); next.Base-r.Base != want {
			t.Errorf("%d B on %d B pages: next Base %#x after, want %#x", tc.size, tc.page, next.Base-r.Base, want)
		}
		end := r.Base + uint64(tc.size)
		for _, out := range []struct {
			addr uint64
			n    int
		}{{r.Base - 1, 1}, {end, 1}, {end - 1, 2}} {
			if _, err := r.ReadAt(make([]byte, out.n), int64(out.addr-r.Base)); !errors.Is(err, ErrOutOfband) {
				t.Errorf("%d B: ReadAt(%#x, %d) err = %v, want ErrOutOfband", tc.size, out.addr, out.n, err)
			}
		}
		if r.units != nil {
			t.Errorf("%d B: geometry and bounds checks allocated the region's bytes", tc.size)
		}
		if tc.size > 8<<20+1 {
			continue
		}
		if n, err := r.ReadAt(make([]byte, tc.size), 0); err != nil || n != tc.size {
			t.Errorf("%d B: whole-region ReadAt: %v, len %d", tc.size, err, n)
		}
		if n, err := r.ReadAt(make([]byte, 1), int64(end-1-r.Base)); err != nil || n != 1 {
			t.Errorf("%d B: last-byte ReadAt: %v, len %d", tc.size, err, n)
		}
	}
}

// TestPageAllocatedOnceOnFirstWrite: a page reads as zeros until a write
// of a non-zero byte reaches it. A short write costs its page one unit
// table and one unit, a zero write to an unwritten unit costs nothing, and
// a later write into a written unit lands in the same unit. A region makes
// its table of unit tables only on its first write.
func TestPageAllocatedOnceOnFirstWrite(t *testing.T) {
	g := NewRegistry()
	r := g.Register(3*PageSize4K+5, PageSize4K, LocalWrite)
	all := make([]byte, r.Len())
	if _, err := r.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if v != 0 {
			t.Fatalf("unwritten byte %d = %d, want 0", i, v)
		}
	}
	r.WriteAt(make([]byte, 100), 700) // zeros into an unwritten unit
	if r.units != nil {
		t.Fatal("reads and a zero write made the region's table of unit tables")
	}
	r.WriteAt([]byte("tail"), hostPage-4)
	r.WriteAt([]byte("head"), 300)
	u := r.unitAt(300)
	r.WriteAt([]byte("world"), 310)
	if c := census(r); c.Units != 2*unitSize || c.Tables != int(unsafe.Sizeof(unitTable{})) {
		t.Fatalf("census %+v, want two units in one unit table", c)
	}
	if r.unitAt(310) != u {
		t.Fatal("a later write into a written unit landed in a different unit")
	}
	got := make([]byte, 16)
	r.ReadAt(got, 300)
	if string(got) != "head\x00\x00\x00\x00\x00\x00world\x00" || r.ByteAt(hostPage-1) != 'l' || r.ByteAt(0) != 0 {
		t.Fatalf("the page reads %q at 300, want the writes' bytes", got)
	}
}
