package mica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	c := cluster.New(cluster.Default(1))
	t.Cleanup(c.Close)
	return New(c.Hosts[0], cfg)
}

func small(t *testing.T) *Store {
	return newStore(t, Config{Buckets: 1 << 10, Items: 4096, SlotSize: 128})
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestPutGetRoundTrip(t *testing.T) {
	s := small(t)
	for i := 0; i < 100; i++ {
		if _, err := s.Put(nil, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		it, err := s.GetValue(nil, key(i), nil)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(it.Value, val(i)) {
			t.Fatalf("value = %q", it.Value)
		}
		if it.Version != 1 {
			t.Fatalf("fresh item version = %d", it.Version)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetMissing(t *testing.T) {
	s := small(t)
	if _, err := s.Get(nil, []byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateBumpsVersion(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), val(1))
	s.Put(nil, key(1), []byte("updated"))
	it, _ := s.GetValue(nil, key(1), nil)
	if string(it.Value) != "updated" || it.Version != 2 {
		t.Fatalf("item = %q v%d", it.Value, it.Version)
	}
	if s.Len() != 1 {
		t.Fatalf("update must not consume a slot: Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), val(1))
	if err := s.Delete(nil, key(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(nil, key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still found")
	}
	// Slot recycled.
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLockConflict(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), val(1))
	if _, err := s.TryLock(nil, key(1), 100, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TryLock(nil, key(1), 200, nil); !errors.Is(err, ErrLocked) {
		t.Fatalf("conflicting lock: err = %v", err)
	}
	// Re-entrant for the same owner.
	if _, err := s.TryLock(nil, key(1), 100, nil); err != nil {
		t.Fatalf("re-lock by owner: %v", err)
	}
	if err := s.Unlock(nil, key(1), 200); !errors.Is(err, ErrLocked) {
		t.Fatal("unlock by non-owner must fail")
	}
	if err := s.Unlock(nil, key(1), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TryLock(nil, key(1), 200, nil); err != nil {
		t.Fatalf("lock after unlock: %v", err)
	}
}

func TestCommitWrite(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), val(1))
	it, _ := s.TryLock(nil, key(1), 7, nil)
	if err := s.CommitWrite(nil, key(1), []byte("committed"), 7); err != nil {
		t.Fatal(err)
	}
	got, _ := s.GetValue(nil, key(1), nil)
	if string(got.Value) != "committed" {
		t.Fatalf("value = %q", got.Value)
	}
	if got.Version != it.Version+1 {
		t.Fatalf("version = %d, want %d", got.Version, it.Version+1)
	}
	// Lock released.
	if _, err := s.TryLock(nil, key(1), 9, nil); err != nil {
		t.Fatalf("lock after commit: %v", err)
	}
}

func TestCommitImageMatchesLocalCommit(t *testing.T) {
	// The one-sided commit (BuildCommitImage RDMA-written over the slot)
	// must leave the slot byte-identical to the RPC commit path.
	s := small(t)
	s.Put(nil, key(1), val(1))
	it, _ := s.TryLock(nil, key(1), 7, nil)

	// One-sided image, applied by hand to a copy of the slot.
	img := make([]byte, 128)
	n := BuildCommitImage(img, key(1), []byte("newvalue"), it.Version+1)
	oneSided := make([]byte, 128)
	s.Region().ReadAt(oneSided, s.itemOff(it.Slot))
	copy(oneSided[:n], img[:n])

	// RPC path on the real slot.
	if err := s.CommitWrite(nil, key(1), []byte("newvalue"), 7); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, 128)
	s.Region().ReadAt(slot, s.itemOff(it.Slot))
	if !bytes.Equal(oneSided, slot) {
		t.Fatal("one-sided commit image diverges from RPC commit")
	}
}

func TestItemAddressesExposeFields(t *testing.T) {
	s := small(t)
	it, _ := s.Put(nil, key(3), []byte("abcdef"))
	reg := s.Region()
	// Version field via address arithmetic.
	b := make([]byte, 8)
	reg.ReadAt(b, int64(it.VersionAddr()-reg.Base))
	if binary.LittleEndian.Uint64(b) != it.Version {
		t.Fatal("VersionAddr does not point at the version")
	}
	reg.ReadAt(b[:6], int64(it.ValueAddr()-reg.Base))
	if string(b[:6]) != "abcdef" {
		t.Fatal("ValueAddr does not point at the value")
	}
}

func TestStoreFull(t *testing.T) {
	s := newStore(t, Config{Buckets: 64, Items: 16, SlotSize: 128})
	var err error
	for i := 0; i < 64; i++ {
		if _, err = s.Put(nil, key(i), val(i)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestValueTooBig(t *testing.T) {
	s := small(t)
	if _, err := s.Put(nil, key(1), make([]byte, 200)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestPropertyPutGetAny(t *testing.T) {
	s := newStore(t, Config{Buckets: 1 << 12, Items: 1 << 14, SlotSize: 256})
	err := quick.Check(func(k, v []byte) bool {
		if len(k) == 0 || len(k) > 64 {
			return true
		}
		if len(v) > 128 {
			v = v[:128]
		}
		if _, err := s.Put(nil, k, v); err != nil {
			// Bucket overflow is legal behaviour, not a correctness bug.
			return errors.Is(err, ErrFull)
		}
		it, err := s.GetValue(nil, k, nil)
		return err == nil && bytes.Equal(it.Value, v)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChargesCPUWhenThreadGiven(t *testing.T) {
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	s := New(c.Hosts[0], Config{Buckets: 1 << 10, Items: 1024, SlotSize: 128})
	for i := 0; i < 100; i++ {
		s.Put(nil, key(i), val(i))
	}
	c.Hosts[0].Spawn("kv", func(th *host.Thread) {
		for i := 0; i < 100; i++ {
			if _, err := s.Get(th, key(i)); err != nil {
				t.Errorf("Get: %v", err)
			}
		}
	})
	end := c.Env.Run()
	// 100 lookups touching buckets and items through the LLC model must
	// consume simulated time; cold misses make it at least ~100ns each.
	if end < 5000 {
		t.Fatalf("100 charged gets took only %d ns", end)
	}
}

// TestItemsAcrossPages: with 96-byte slots after a 4 KB index, items
// straddle 256-byte units and 4 KB pages. Put, GetValue, TryLock and
// CommitWrite round-trip every item, and a one-sided RDMA READ of an
// item's version through the NIC returns what GetValue reports.
func TestItemsAcrossPages(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	s := New(c.Hosts[1], Config{Buckets: 64, Items: 200, SlotSize: 96})
	value := func(i, round int) []byte { return []byte(fmt.Sprintf("%02d-%036d", round, i)) }
	crossing := 0
	for i := 0; i < 200; i++ {
		it, err := s.Put(nil, key(i), value(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		if off := it.Addr - s.Region().Base; off/4096 != (off+95)/4096 {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no item crosses a 4 KB page")
	}
	for i := 0; i < 200; i++ {
		owner := uint64(i + 1)
		it, err := s.TryLock(nil, key(i), owner, nil)
		if err != nil || !bytes.Equal(it.Value, value(i, 0)) || it.Version != 1 {
			t.Fatalf("TryLock(%d): %q v%d, %v", i, it.Value, it.Version, err)
		}
		if err := s.CommitWrite(nil, key(i), value(i, 1), owner); err != nil {
			t.Fatal(err)
		}
	}

	a := c.Hosts[0]
	cq := a.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.RC, cq, cq)
	qb := c.Hosts[1].NIC.CreateQP(nic.RC, c.Hosts[1].NIC.CreateCQ(), c.Hosts[1].NIC.CreateCQ())
	if err := nic.Connect(qa, qb); err != nil {
		t.Fatal(err)
	}
	dst := a.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	buf := make([]byte, 0, 64)
	for i := 0; i < 200; i++ {
		it, err := s.GetValue(nil, key(i), buf[:0])
		if err != nil || !bytes.Equal(it.Value, value(i, 1)) || it.Version != 2 {
			t.Fatalf("GetValue(%d) after commit: %q v%d, %v", i, it.Value, it.Version, err)
		}
		if err := qa.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpRead, Signaled: true,
			LKey: dst.LKey, LAddr: dst.Base, Len: 8,
			RKey: s.Region().RKey, RAddr: it.VersionAddr()}); err != nil {
			t.Fatal(err)
		}
		c.Env.Run()
		if cqes := cq.Poll(1); len(cqes) != 1 || cqes[0].Status != nic.CQOK {
			t.Fatalf("READ of item %d's version: %+v", i, cqes)
		}
		v := make([]byte, 8)
		dst.ReadAt(v, 0)
		if ParseVersion(v) != it.Version {
			t.Fatalf("item %d: RDMA READ returns version %d, GetValue %d", i, ParseVersion(v), it.Version)
		}
	}
}

// TestGetValueAppends: GetValue appends the value to the caller's buffer
// in place when it has room, and Get reads no value.
func TestGetValueAppends(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), []byte("value"))
	buf := make([]byte, 2, 16)
	it, err := s.GetValue(nil, key(1), buf)
	if err != nil || string(it.Value[2:]) != "value" || &it.Value[0] != &buf[0] {
		t.Fatalf("GetValue into a buffer with room: %q, %v; want the value appended in place", it.Value, err)
	}
	if it, _ := s.Get(nil, key(1)); it.Value != nil || it.Version != 1 {
		t.Fatalf("Get: value %q, version %d; want no value and version 1", it.Value, it.Version)
	}
}
