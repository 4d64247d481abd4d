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
		it, err := s.Get(nil, key(i))
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
	it, _ := s.Get(nil, key(1))
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
	if _, err := s.TryLock(nil, key(1), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TryLock(nil, key(1), 200); !errors.Is(err, ErrLocked) {
		t.Fatalf("conflicting lock: err = %v", err)
	}
	// Re-entrant for the same owner.
	if _, err := s.TryLock(nil, key(1), 100); err != nil {
		t.Fatalf("re-lock by owner: %v", err)
	}
	if err := s.Unlock(nil, key(1), 200); !errors.Is(err, ErrLocked) {
		t.Fatal("unlock by non-owner must fail")
	}
	if err := s.Unlock(nil, key(1), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TryLock(nil, key(1), 200); err != nil {
		t.Fatalf("lock after unlock: %v", err)
	}
}

func TestCommitWrite(t *testing.T) {
	s := small(t)
	s.Put(nil, key(1), val(1))
	it, _ := s.TryLock(nil, key(1), 7)
	if err := s.CommitWrite(nil, key(1), []byte("committed"), 7); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(nil, key(1))
	if string(got.Value) != "committed" {
		t.Fatalf("value = %q", got.Value)
	}
	if got.Version != it.Version+1 {
		t.Fatalf("version = %d, want %d", got.Version, it.Version+1)
	}
	// Lock released.
	if _, err := s.TryLock(nil, key(1), 9); err != nil {
		t.Fatalf("lock after commit: %v", err)
	}
}

func TestCommitImageMatchesLocalCommit(t *testing.T) {
	// The one-sided commit (BuildCommitImage RDMA-written over the slot)
	// must leave the slot byte-identical to the RPC commit path.
	s := small(t)
	s.Put(nil, key(1), val(1))
	it, _ := s.TryLock(nil, key(1), 7)

	// One-sided image, applied by hand to a copy of the slot.
	img := make([]byte, 128)
	n := BuildCommitImage(img, key(1), []byte("newvalue"), it.Version+1)
	slot := s.itemBytes(it.Slot)
	oneSided := append([]byte(nil), slot...)
	copy(oneSided[:n], img[:n])

	// RPC path on the real slot.
	if err := s.CommitWrite(nil, key(1), []byte("newvalue"), 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneSided, slot) {
		t.Fatal("one-sided commit image diverges from RPC commit")
	}
}

func TestItemAddressesExposeFields(t *testing.T) {
	s := small(t)
	it, _ := s.Put(nil, key(3), []byte("abcdef"))
	reg := s.Region()
	// Version field via address arithmetic.
	off := it.VersionAddr() - reg.Base
	if binary.LittleEndian.Uint64(reg.ReadView(int(off), 8)) != it.Version {
		t.Fatal("VersionAddr does not point at the version")
	}
	voff := it.ValueAddr() - reg.Base
	if string(reg.ReadView(int(voff), 6)) != "abcdef" {
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
		it, err := s.Get(nil, k)
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
