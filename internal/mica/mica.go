// Package mica implements an in-memory hash-table key-value store with the
// same layout as MICA (Lim et al., NSDI'14), as used by the paper's ScaleTX
// storage servers (§4.2): bucketized hash index over fixed-size item slots,
// each item carrying a co-located lock word and version number.
//
// The whole store lives inside a single registered memory region, so
// remote coordinators can operate on items with one-sided verbs:
//
//	item+0:  lock    (8 B)  — zeroed by the commit-time RDMA write
//	item+8:  version (8 B)  — RDMA-read during validation
//	item+16: keyLen  (4 B) | valLen (4 B)
//	item+24: key bytes, then value bytes
//
// All methods take an optional *host.Thread; when non-nil, index and item
// accesses are charged through the host's LLC model (pass nil during bulk
// preload).
package mica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

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

// Store is a MICA-layout KV store inside a registered region.
type Store struct {
	cfg     Config
	reg     *memory.Region
	buckets uint64 // power of two
	// Layout offsets within the region.
	indexOff uint64
	itemsOff uint64
	freeList []uint32
	// Counters.
	Gets, Puts, Hits uint64
}

// New allocates and formats a store on host h.
func New(h *host.Host, cfg Config) *Store {
	b := uint64(cfg.Buckets)
	for b&(b-1) != 0 {
		b &= b - 1
	}
	if b == 0 {
		b = 1
	}
	indexBytes := b * slotsPerBucket * bucketEntrySize
	// The store keeps its records in place and views them — no other
	// package views region bytes — and a view lies inside one 4 KB backing
	// page (memory.Region.ReadView): a slot is a power of two no larger than
	// that, and the index ends on a slot boundary. A bucket on an index page
	// nothing has written views as nil, which reads as empty.
	if cfg.SlotSize <= 0 || cfg.SlotSize&(cfg.SlotSize-1) != 0 || cfg.SlotSize > 4<<10 || indexBytes%uint64(cfg.SlotSize) != 0 {
		panic(fmt.Sprintf("mica: slot size %d with a %d-byte index puts items across 4 KB pages", cfg.SlotSize, indexBytes))
	}
	total := int(indexBytes) + cfg.Items*cfg.SlotSize
	reg := h.Mem.Register(total, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)
	s := &Store{
		cfg:      cfg,
		reg:      reg,
		buckets:  b,
		indexOff: 0,
		itemsOff: indexBytes,
	}
	s.freeList = make([]uint32, 0, cfg.Items)
	for i := cfg.Items - 1; i >= 0; i-- {
		s.freeList = append(s.freeList, uint32(i))
	}
	return s
}

// Region returns the backing registered region (for rkey exchange).
func (s *Store) Region() *memory.Region { return s.reg }

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

// itemBytes views item slot i for reading and writing. A slot is read
// only after it has been written.
func (s *Store) itemBytes(i uint32) []byte {
	return s.reg.WriteView(s.itemOff(i), s.cfg.SlotSize)
}

func (s *Store) itemOff(i uint32) int {
	return int(s.itemsOff + uint64(i)*uint64(s.cfg.SlotSize))
}

// bucketBytes views bucket b for reading, nil while no insert has reached
// its index page, which stays unallocated; bucketWrite for writing.
func (s *Store) bucketBytes(b uint64) []byte {
	return s.reg.ReadView(s.bucketOff(b), slotsPerBucket*bucketEntrySize)
}

func (s *Store) bucketWrite(b uint64) []byte {
	return s.reg.WriteView(s.bucketOff(b), slotsPerBucket*bucketEntrySize)
}

func (s *Store) bucketOff(b uint64) int {
	return int(s.indexOff + b*slotsPerBucket*bucketEntrySize)
}

func (s *Store) bucketAddr(b uint64) uint64 {
	return s.reg.Base + s.indexOff + b*slotsPerBucket*bucketEntrySize
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
func (s *Store) lookup(t *host.Thread, key []byte) (uint64, int, uint32, bool) {
	h := hash64(key)
	home := h & (s.buckets - 1)
	tag := uint16(h >> 48)
	for p := uint64(0); p < probeDepth; p++ {
		b := (home + p) & (s.buckets - 1)
		bb := s.bucketBytes(b)
		charge(t, s.bucketAddr(b), slotsPerBucket*bucketEntrySize, false)
		if bb == nil {
			continue
		}
		for e := 0; e < slotsPerBucket; e++ {
			ent := binary.LittleEndian.Uint64(bb[e*bucketEntrySize:])
			if ent == 0 {
				continue
			}
			if uint16(ent>>48) != tag {
				continue
			}
			slot := uint32(ent) - 1
			item := s.itemBytes(slot)
			keyLen := int(binary.LittleEndian.Uint32(item[OffLens:]))
			charge(t, s.itemAddr(slot), OffKey+keyLen, false)
			if keyLen == len(key) && bytes.Equal(item[OffKey:OffKey+keyLen], key) {
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
	Value   []byte // aliases store memory; copy to retain
	KeyLen  int
}

// VersionAddr returns the address of the co-located version number.
func (it Item) VersionAddr() uint64 { return it.Addr + OffVersion }

// ValueAddr returns the address of the value bytes.
func (it Item) ValueAddr() uint64 { return it.Addr + OffKey + uint64(it.KeyLen) }

// Get returns the item for key.
func (s *Store) Get(t *host.Thread, key []byte) (Item, error) {
	s.Gets++
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return Item{}, ErrNotFound
	}
	s.Hits++
	return s.itemView(t, slot), nil
}

func (s *Store) itemView(t *host.Thread, slot uint32) Item {
	item := s.itemBytes(slot)
	keyLen := int(binary.LittleEndian.Uint32(item[OffLens:]))
	valLen := int(binary.LittleEndian.Uint32(item[OffLens+4:]))
	charge(t, s.itemAddr(slot), OffKey+keyLen+valLen, false)
	return Item{
		Slot:    slot,
		Addr:    s.itemAddr(slot),
		Version: binary.LittleEndian.Uint64(item[OffVersion:]),
		Value:   item[OffKey+keyLen : OffKey+keyLen+valLen],
		KeyLen:  keyLen,
	}
}

// Put inserts or updates key (unversioned fast path for loading and for
// non-transactional use). It bumps the version on update.
func (s *Store) Put(t *host.Thread, key, value []byte) (Item, error) {
	s.Puts++
	if OffKey+len(key)+len(value) > s.cfg.SlotSize {
		return Item{}, fmt.Errorf("%w: %d+%d", ErrTooBig, len(key), len(value))
	}
	b, _, slot, ok := s.lookup(t, key)
	if ok {
		item := s.itemBytes(slot)
		binary.LittleEndian.PutUint64(item[OffVersion:], binary.LittleEndian.Uint64(item[OffVersion:])+1)
		binary.LittleEndian.PutUint32(item[OffLens+4:], uint32(len(value)))
		copy(item[OffKey+len(key):], value)
		charge(t, s.itemAddr(slot), OffKey+len(key)+len(value), true)
		return s.itemView(nil, slot), nil
	}
	// Insert: grab a free slot and an empty entry in the home bucket or,
	// if it is full, in one of the probe buckets.
	if len(s.freeList) == 0 {
		return Item{}, ErrFull
	}
	entry := -1
	for p := uint64(0); p < probeDepth && entry < 0; p++ {
		cand := (b + p) & (s.buckets - 1)
		cb := s.bucketBytes(cand)
		for e := 0; e < slotsPerBucket; e++ {
			if cb == nil || binary.LittleEndian.Uint64(cb[e*bucketEntrySize:]) == 0 {
				entry = e
				b = cand
				break
			}
		}
	}
	if entry < 0 {
		return Item{}, fmt.Errorf("%w: bucket overflow", ErrFull)
	}
	slot = s.freeList[len(s.freeList)-1]
	s.freeList = s.freeList[:len(s.freeList)-1]
	item := s.itemBytes(slot)
	for i := range item[:OffKey] {
		item[i] = 0
	}
	binary.LittleEndian.PutUint32(item[OffLens:], uint32(len(key)))
	binary.LittleEndian.PutUint32(item[OffLens+4:], uint32(len(value)))
	copy(item[OffKey:], key)
	copy(item[OffKey+len(key):], value)
	binary.LittleEndian.PutUint64(item[OffVersion:], 1)
	tag := hash64(key) >> 48
	binary.LittleEndian.PutUint64(s.bucketWrite(b)[entry*bucketEntrySize:], tag<<48|uint64(slot+1))
	charge(t, s.itemAddr(slot), OffKey+len(key)+len(value), true)
	charge(t, s.bucketAddr(b)+uint64(entry*bucketEntrySize), bucketEntrySize, true)
	return s.itemView(nil, slot), nil
}

// Delete removes key.
func (s *Store) Delete(t *host.Thread, key []byte) error {
	b, e, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	bb := s.bucketWrite(b)
	binary.LittleEndian.PutUint64(bb[e*bucketEntrySize:], 0)
	charge(t, s.bucketAddr(b)+uint64(e*bucketEntrySize), bucketEntrySize, true)
	s.freeList = append(s.freeList, slot)
	return nil
}

// TryLock locks the item for transaction owner (nonzero). It fails with
// ErrLocked if another owner holds it.
func (s *Store) TryLock(t *host.Thread, key []byte, owner uint64) (Item, error) {
	if owner == 0 {
		panic("mica: zero lock owner")
	}
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return Item{}, ErrNotFound
	}
	item := s.itemBytes(slot)
	cur := binary.LittleEndian.Uint64(item[OffLock:])
	if cur != 0 && cur != owner {
		return Item{}, ErrLocked
	}
	binary.LittleEndian.PutUint64(item[OffLock:], owner)
	charge(t, s.itemAddr(slot), 8, true)
	return s.itemView(t, slot), nil
}

// Unlock releases the item if owner holds it.
func (s *Store) Unlock(t *host.Thread, key []byte, owner uint64) error {
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	item := s.itemBytes(slot)
	if binary.LittleEndian.Uint64(item[OffLock:]) != owner {
		return ErrLocked
	}
	binary.LittleEndian.PutUint64(item[OffLock:], 0)
	charge(t, s.itemAddr(slot), 8, true)
	return nil
}

// CommitWrite applies a transactional update locally (the RPC commit path
// of ScaleTX-O): new value, version+1, lock released.
func (s *Store) CommitWrite(t *host.Thread, key, value []byte, owner uint64) error {
	_, _, slot, ok := s.lookup(t, key)
	if !ok {
		return ErrNotFound
	}
	item := s.itemBytes(slot)
	if binary.LittleEndian.Uint64(item[OffLock:]) != owner {
		return ErrLocked
	}
	keyLen := int(binary.LittleEndian.Uint32(item[OffLens:]))
	if OffKey+keyLen+len(value) > s.cfg.SlotSize {
		return ErrTooBig
	}
	binary.LittleEndian.PutUint64(item[OffVersion:], binary.LittleEndian.Uint64(item[OffVersion:])+1)
	binary.LittleEndian.PutUint32(item[OffLens+4:], uint32(len(value)))
	copy(item[OffKey+keyLen:], value)
	binary.LittleEndian.PutUint64(item[OffLock:], 0)
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

// Len returns the number of live items.
func (s *Store) Len() int { return s.cfg.Items - len(s.freeList) }
