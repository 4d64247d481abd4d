// Package mica implements an in-memory hash-table key-value store with the
// same layout as MICA (Lim et al., NSDI'14), as used by the paper's ScaleTX
// storage servers (§4.2): bucketized hash index over fixed-size item slots,
// each item carrying a co-located lock word and version number.
//
// The whole store lives inside a single registered memory region, so
// remote coordinators can operate on items with one-sided verbs, and the
// store itself reads and writes it with ReadAt and WriteAt like any other
// user of a region, so no record bytes alias store memory past a call:
//
//	item+0:  lock    (8 B)  — zeroed by the commit-time RDMA write
//	item+8:  version (8 B)  — RDMA-read during validation
//	item+16: keyLen  (4 B) | valLen (4 B)
//	item+24: key bytes, then value bytes
//
// All methods take an optional *host.Thread; when non-nil, index and item
// accesses are charged through the host's LLC model. A Put with a nil
// thread is a preload: it charges nothing, and it is the one call a store
// that follows this one (a replica loaded with the same rows, see Follow)
// mirrors without holding bytes of its own. Pass nil during bulk preload.
package mica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
)

// Item field offsets within a slot.
const (
	OffLock    = 0
	OffVersion = 8
	OffLens    = 16
	OffKey     = 24
)

const slotsPerBucket = 8

// probeDepth is how many consecutive buckets an item may be displaced
// into when its home bucket is full (linear probing keeps the index dense
// without MICA's lossy eviction).
const probeDepth = 4

// Errors returned by store operations.
var (
	ErrNotFound = errors.New("mica: key not found")
	ErrLocked   = errors.New("mica: item locked by another transaction")
	ErrFull     = errors.New("mica: store full")
	ErrTooBig   = errors.New("mica: key/value exceeds slot size")
)

// Config sizes a store.
type Config struct {
	Buckets  int // hash buckets (rounded down to a power of two)
	Items    int // item slot capacity
	SlotSize int // bytes per item slot (header + key + value)
}

// bucketEntry is one index slot: a 16-bit tag plus the item slot number
// (+1; 0 = empty), packed in 8 bytes.
const bucketEntrySize = 8

// bucketSize is the bytes of one bucket: one cache line of entries.
const bucketSize = slotsPerBucket * bucketEntrySize

// Store is a MICA-layout KV store inside a registered region.
type Store struct {
	cfg     Config
	reg     *memory.Region
	buckets uint64 // power of two
	// Layout offsets within the region.
	indexOff uint64
	itemsOff uint64
	// Slots are handed out in order from next, the first never used, after
	// the deleted ones in freed, the last deleted first.
	next  uint32
	freed []uint32
	// Counters.
	Gets, Puts, Hits uint64
	// twin is the other store of a pair that has not split yet (see
	// Follow), nil otherwise; follows reports whether s is the follower.
	twin    *Store
	follows bool
	// loadGen is the leader's region generation after its last preload.
	loadGen uint64
}

// New allocates and formats a store on host h. The index and the items
// may lie anywhere in the region: the store moves their bytes with
// ReadAt and WriteAt, which carry spans across backing pages.
func New(h *host.Host, cfg Config) *Store {
	b := uint64(cfg.Buckets)
	for b&(b-1) != 0 {
		b &= b - 1
	}
	if b == 0 {
		b = 1
	}
	indexBytes := b * bucketSize
	total := int(indexBytes) + cfg.Items*cfg.SlotSize
	reg := h.Mem.Register(total, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)
	return &Store{
		cfg:      cfg,
		reg:      reg,
		buckets:  b,
		indexOff: 0,
		itemsOff: indexBytes,
	}
}

// Region returns the backing registered region (for rkey exchange),
// splitting s's pair first (see Follow).
func (s *Store) Region() *memory.Region {
	s.Split()
	return s.reg
}

// Follow makes s follow leader, a store of the same config: s holds every
// row leader's preloads (Puts with a nil thread) write, without writing or
// holding any bytes itself, until the pair splits. Any other call on
// either store splits it first — a call with a thread, a read, a delete,
// a lock, Region or Len, and every call on s — as does Split. At the split
// s's region shares leader's units copy-on-write (memory.Region.Share) and
// s takes leader's slot state, so from then on each store is what it
// would be had every preload that succeeded been made on both. A store's
// region written other than through a preload while the pair stands
// panics the split.
//
// Follow reports whether s follows leader. It refuses, changing nothing,
// unless both are unwritten and in no other pair; it is true again for a
// pair that has not split.
func (s *Store) Follow(leader *Store) bool {
	if s.twin == leader && s.follows {
		return true
	}
	if s.twin != nil || leader.twin != nil || s == leader || s.cfg != leader.cfg ||
		s.reg.Gen() != 0 || leader.reg.Gen() != 0 {
		return false
	}
	s.twin, s.follows = leader, true
	leader.twin, leader.follows = s, false
	leader.loadGen = 0
	return true
}

// Split ends s's pair, if s is in one (see Follow).
func (s *Store) Split() {
	if s.twin != nil {
		s.split()
	}
}

func (s *Store) split() {
	f, l := s, s.twin // follower, leader
	if !s.follows {
		f, l = l, f
	}
	l.checkPair()
	f.reg.Share(l.reg)
	f.next = l.next
	f.freed = append(f.freed[:0], l.freed...)
	f.twin, l.twin = nil, nil
}

// checkPair panics unless the leader s's region moved only through its
// preloads and its follower's not at all.
func (s *Store) checkPair() {
	if s.reg.Gen() != s.loadGen || s.twin.reg.Gen() != 0 {
		panic(fmt.Sprintf("mica: a store of a pair was written outside a preload (leader generation %d, want %d; follower %d, want 0)",
			s.reg.Gen(), s.loadGen, s.twin.reg.Gen()))
	}
}

func hash64(key []byte) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// itemAddr returns the virtual address of item slot i.
func (s *Store) itemAddr(i uint32) uint64 {
	return s.reg.Base + s.itemsOff + uint64(i)*uint64(s.cfg.SlotSize)
}

func (s *Store) itemOff(i uint32) int64 {
	return int64(s.itemsOff + uint64(i)*uint64(s.cfg.SlotSize))
}

func (s *Store) bucketOff(b uint64) int64 {
	return int64(s.indexOff + b*bucketSize)
}

func (s *Store) bucketAddr(b uint64) uint64 {
	return s.reg.Base + s.indexOff + b*bucketSize
}

// header reads item slot i's fixed fields: lock, version and lengths.
func (s *Store) header(i uint32) (h [OffKey]byte) {
	s.reg.ReadAt(h[:], s.itemOff(i))
	return h
}

// word reads the 8-byte field at region offset off.
func (s *Store) word(off int64) uint64 {
	var w [8]byte
	s.reg.ReadAt(w[:], off)
	return binary.LittleEndian.Uint64(w[:])
}

// putWord writes v into the 8-byte field at region offset off.
func (s *Store) putWord(off int64, v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	s.reg.WriteAt(w[:], off)
}

// keyIs reports whether item slot i's key bytes equal key, whose length
// the slot's key length matches.
func (s *Store) keyIs(i uint32, key []byte) bool {
	var buf [64]byte
	for off := s.itemOff(i) + OffKey; len(key) > 0; {
		n := min(len(key), len(buf))
		s.reg.ReadAt(buf[:n], off)
		if !bytes.Equal(buf[:n], key[:n]) {
			return false
		}
		key, off = key[n:], off+int64(n)
	}
	return true
}

// charge models a CPU access when t is non-nil.
func charge(t *host.Thread, addr uint64, size int, write bool) {
	if t == nil {
		return
	}
	if write {
		t.WriteMem(addr, size)
	} else {
		t.ReadMem(addr, size)
	}
}

// lookup finds the item slot holding key, probing up to probeDepth
// consecutive buckets, returning (bucket, entry index, slot, true) on hit.
// Each bucket is read once its cache line is charged; an item's key
// length before its key is charged, and its key after.
func (s *Store) lookup(t *host.Thread, key []byte) (uint64, int, uint32, bool) {
	h := hash64(key)
	home := h & (s.buckets - 1)
	tag := uint16(h >> 48)
	for p := uint64(0); p < probeDepth; p++ {
		b := (home + p) & (s.buckets - 1)
		charge(t, s.bucketAddr(b), bucketSize, false)
		var bb [bucketSize]byte
		s.reg.ReadAt(bb[:], s.bucketOff(b))
		for e := 0; e < slotsPerBucket; e++ {
			ent := binary.LittleEndian.Uint64(bb[e*bucketEntrySize:])
			if ent == 0 || uint16(ent>>48) != tag {
				continue
			}
			slot := uint32(ent) - 1
			keyLen := int(uint32(s.word(s.itemOff(slot) + OffLens)))
			charge(t, s.itemAddr(slot), OffKey+keyLen, false)
			if keyLen == len(key) && s.keyIs(slot, key) {
				return b, e, slot, true
			}
		}
	}
	return home, -1, 0, false
}

// Item is the result of a Get/Lock: the slot's address exposes the lock,
// version and value to one-sided verbs.
type Item struct {
	Slot    uint32
	Addr    uint64 // virtual address of the slot (lock word)
	Version uint64
	Value   []byte // the caller's buffer with the value appended; nil from Get
	KeyLen  int
}

// VersionAddr returns the address of the co-located version number.
func (it Item) VersionAddr() uint64 { return it.Addr + OffVersion }

// ValueAddr returns the address of the value bytes.
func (it Item) ValueAddr() uint64 { return it.Addr + OffKey + uint64(it.KeyLen) }

// Get returns the item for key without its value.
func (s *Store) Get(t *host.Thread, key []byte) (Item, error) {
	return s.get(t, key, nil, false)
}

// GetValue is Get that also reads the value: it appends the value to buf,
// as append does, and returns the result as Item.Value. A caller reuses
// its buffer by passing buf[:0], or reads in place by passing a slice of
// it with room to spare.
func (s *Store) GetValue(t *host.Thread, key, buf []byte) (Item, error) {
	return s.get(t, key, buf, true)
}

func (s *Store) get(t *host.Thread, key, buf []byte, value bool) (Item, error) {
	s.Split()
	s.Gets++
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return Item{}, ErrNotFound
	}
	s.Hits++
	return s.item(t, slot, buf, value), nil
}

// item reads slot's item: its lengths, then, once the header, key and value
// are charged, its version and, if value is set, its value appended to buf.
func (s *Store) item(t *host.Thread, slot uint32, buf []byte, value bool) Item {
	off := s.itemOff(slot)
	lens := s.word(off + OffLens)
	keyLen, valLen := int(uint32(lens)), int(lens>>32)
	charge(t, s.itemAddr(slot), OffKey+keyLen+valLen, false)
	it := Item{Slot: slot, Addr: s.itemAddr(slot), Version: s.word(off + OffVersion), KeyLen: keyLen}
	if value {
		n := len(buf)
		it.Value = slices.Grow(buf, valLen)[:n+valLen]
		s.reg.ReadAt(it.Value[n:], off+OffKey+int64(keyLen))
	}
	return it
}

// Put inserts or updates key (unversioned fast path for loading and for
// non-transactional use). It bumps the version on update. The Item holds
// what Put wrote: the slot, its address, version and key length. With a
// nil thread it is a preload, which a follower mirrors (see Follow).
func (s *Store) Put(t *host.Thread, key, value []byte) (Item, error) {
	if s.twin == nil {
		return s.put(t, key, value)
	}
	if t != nil || s.follows {
		s.split()
		return s.put(t, key, value)
	}
	s.checkPair()
	it, err := s.put(nil, key, value)
	s.loadGen = s.reg.Gen()
	if err == nil {
		s.twin.Puts++
	}
	return it, err
}

func (s *Store) put(t *host.Thread, key, value []byte) (Item, error) {
	s.Puts++
	if OffKey+len(key)+len(value) > s.cfg.SlotSize {
		return Item{}, fmt.Errorf("%w: %d+%d", ErrTooBig, len(key), len(value))
	}
	b, _, slot, ok := s.lookup(t, key)
	if ok {
		off := s.itemOff(slot)
		h := s.header(slot)
		version := binary.LittleEndian.Uint64(h[OffVersion:]) + 1
		binary.LittleEndian.PutUint64(h[OffVersion:], version)
		binary.LittleEndian.PutUint32(h[OffLens+4:], uint32(len(value)))
		s.reg.WriteAt(h[:], off)
		s.reg.WriteAt(value, off+OffKey+int64(len(key)))
		charge(t, s.itemAddr(slot), OffKey+len(key)+len(value), true)
		return Item{Slot: slot, Addr: s.itemAddr(slot), Version: version, KeyLen: len(key)}, nil
	}
	// Insert: grab a free slot and an empty entry in the home bucket or,
	// if it is full, in one of the probe buckets.
	if int(s.next) == s.cfg.Items && len(s.freed) == 0 {
		return Item{}, ErrFull
	}
	entry := -1
	for p := uint64(0); p < probeDepth && entry < 0; p++ {
		cand := (b + p) & (s.buckets - 1)
		var cb [bucketSize]byte
		s.reg.ReadAt(cb[:], s.bucketOff(cand))
		for e := 0; e < slotsPerBucket; e++ {
			if binary.LittleEndian.Uint64(cb[e*bucketEntrySize:]) == 0 {
				entry = e
				b = cand
				break
			}
		}
	}
	if entry < 0 {
		return Item{}, fmt.Errorf("%w: bucket overflow", ErrFull)
	}
	if k := len(s.freed); k > 0 {
		slot, s.freed = s.freed[k-1], s.freed[:k-1]
	} else {
		slot = s.next
		s.next++
	}
	off := s.itemOff(slot)
	var h [OffKey]byte
	binary.LittleEndian.PutUint64(h[OffVersion:], 1)
	binary.LittleEndian.PutUint32(h[OffLens:], uint32(len(key)))
	binary.LittleEndian.PutUint32(h[OffLens+4:], uint32(len(value)))
	s.reg.WriteAt(h[:], off)
	s.reg.WriteAt(key, off+OffKey)
	s.reg.WriteAt(value, off+OffKey+int64(len(key)))
	tag := hash64(key) >> 48
	s.putWord(s.bucketOff(b)+int64(entry*bucketEntrySize), tag<<48|uint64(slot+1))
	charge(t, s.itemAddr(slot), OffKey+len(key)+len(value), true)
	charge(t, s.bucketAddr(b)+uint64(entry*bucketEntrySize), bucketEntrySize, true)
	return Item{Slot: slot, Addr: s.itemAddr(slot), Version: 1, KeyLen: len(key)}, nil
}

// Delete removes key.
func (s *Store) Delete(t *host.Thread, key []byte) error {
	s.Split()
	b, e, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	s.putWord(s.bucketOff(b)+int64(e*bucketEntrySize), 0)
	charge(t, s.bucketAddr(b)+uint64(e*bucketEntrySize), bucketEntrySize, true)
	s.freed = append(s.freed, slot)
	return nil
}

// TryLock locks the item for transaction owner (nonzero) and returns it
// with its value appended to buf, as GetValue does. It fails with
// ErrLocked if another owner holds it.
func (s *Store) TryLock(t *host.Thread, key []byte, owner uint64, buf []byte) (Item, error) {
	s.Split()
	if owner == 0 {
		panic("mica: zero lock owner")
	}
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return Item{}, ErrNotFound
	}
	if cur := s.word(s.itemOff(slot) + OffLock); cur != 0 && cur != owner {
		return Item{}, ErrLocked
	}
	s.putWord(s.itemOff(slot)+OffLock, owner)
	charge(t, s.itemAddr(slot), 8, true)
	return s.item(t, slot, buf, true), nil
}

// Unlock releases the item if owner holds it.
func (s *Store) Unlock(t *host.Thread, key []byte, owner uint64) error {
	s.Split()
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	if s.word(s.itemOff(slot)+OffLock) != owner {
		return ErrLocked
	}
	s.putWord(s.itemOff(slot)+OffLock, 0)
	charge(t, s.itemAddr(slot), 8, true)
	return nil
}

// CommitWrite applies a transactional update locally (the RPC commit path
// of ScaleTX-O): new value, version+1, lock released.
func (s *Store) CommitWrite(t *host.Thread, key, value []byte, owner uint64) error {
	s.Split()
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	h := s.header(slot)
	if binary.LittleEndian.Uint64(h[OffLock:]) != owner {
		return ErrLocked
	}
	keyLen := int(binary.LittleEndian.Uint32(h[OffLens:]))
	if OffKey+keyLen+len(value) > s.cfg.SlotSize {
		return ErrTooBig
	}
	off := s.itemOff(slot)
	binary.LittleEndian.PutUint64(h[OffLock:], 0)
	binary.LittleEndian.PutUint64(h[OffVersion:], binary.LittleEndian.Uint64(h[OffVersion:])+1)
	binary.LittleEndian.PutUint32(h[OffLens+4:], uint32(len(value)))
	s.reg.WriteAt(h[:], off)
	s.reg.WriteAt(value, off+OffKey+int64(keyLen))
	charge(t, s.itemAddr(slot), OffKey+keyLen+len(value), true)
	return nil
}

// BuildCommitImage assembles, in buf, the full slot image a ScaleTX
// coordinator RDMA-writes at commit: lock=0, version=newVersion, lengths,
// key, new value. Returns the number of bytes to write (from slot offset 0).
func BuildCommitImage(buf []byte, key, value []byte, newVersion uint64) int {
	n := OffKey + len(key) + len(value)
	for i := range buf[:OffKey] {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[OffLock:], 0)
	binary.LittleEndian.PutUint64(buf[OffVersion:], newVersion)
	binary.LittleEndian.PutUint32(buf[OffLens:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[OffLens+4:], uint32(len(value)))
	copy(buf[OffKey:], key)
	copy(buf[OffKey+len(key):], value)
	return n
}

// ParseVersion reads a version number from an 8-byte RDMA-read result.
func ParseVersion(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Len returns the number of live items, splitting s's pair first.
func (s *Store) Len() int {
	s.Split()
	return int(s.next) - len(s.freed)
}
