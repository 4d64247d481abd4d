package memory

import (
	"errors"
	"runtime"
	"testing"
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
	if string(r.Bytes()[100:105]) != "hello" {
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
			_, _, err := g.TranslateRemoteOp(r.RKey, r.Base, 8, tc.op)
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

func TestTranslateLocal(t *testing.T) {
	g := NewRegistry()
	r := g.Register(256, PageSize4K, LocalWrite)
	_, b, err := g.TranslateLocal(r.LKey, r.Base+10, 5)
	if err != nil || len(b) != 5 {
		t.Fatalf("TranslateLocal: %v len=%d", err, len(b))
	}
	if _, _, err := g.TranslateLocal(12345, r.Base, 1); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v, want ErrBadKey", err)
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
			if _, err := r.Slice(out.addr, out.n); !errors.Is(err, ErrOutOfband) {
				t.Errorf("%d B: Slice(%#x, %d) err = %v, want ErrOutOfband", tc.size, out.addr, out.n, err)
			}
		}
		if r.buf != nil {
			t.Errorf("%d B: geometry and bounds checks allocated the region's bytes", tc.size)
		}
		if tc.size > 8<<20+1 {
			continue
		}
		if b, err := r.Slice(r.Base, tc.size); err != nil || len(b) != tc.size {
			t.Errorf("%d B: whole-region Slice: %v, len %d", tc.size, err, len(b))
		}
		if b, err := r.Slice(end-1, 1); err != nil || len(b) != 1 {
			t.Errorf("%d B: last-byte Slice: %v, len %d", tc.size, err, len(b))
		}
	}
}

// TestBytesAllocatedOnceOnFirstTouch: the first Bytes call returns a zeroed
// store of the region's length, every later call the same backing array,
// and Slice views alias it.
func TestBytesAllocatedOnceOnFirstTouch(t *testing.T) {
	g := NewRegistry()
	r := g.Register(3*PageSize4K+5, PageSize4K, LocalWrite)
	b := r.Bytes()
	if len(b) != r.Len() {
		t.Fatalf("len(Bytes) = %d, want %d", len(b), r.Len())
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("first Bytes()[%d] = %d, want 0", i, v)
		}
	}
	s, err := r.Slice(r.Base+100, 5)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "hello")
	again := r.Bytes()
	if &again[0] != &b[0] {
		t.Fatal("a later Bytes call returned a different backing array")
	}
	if string(again[100:105]) != "hello" {
		t.Fatal("a write through Slice is not visible through Bytes")
	}
}
