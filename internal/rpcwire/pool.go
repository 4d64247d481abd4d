package rpcwire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"scalerpc/internal/memory"
)

// Pool is a message pool laid out over a registered memory region:
// contiguous zones of contiguous fixed-size blocks. The RPCServer maps one
// zone per client (or per logical client slot under ScaleRPC's virtualized
// mapping); working threads own disjoint zone ranges.
type Pool struct {
	Region        *memory.Region
	BlockSize     int
	BlocksPerZone int
	Zones         int
	// clearAt[i] is one more than the Region.Gen at which block i's Valid
	// byte last read clear, 0 before that: while the generation holds,
	// the byte still reads clear and Valid need not read it again.
	clearAt []uint64
}

// NewPool formats a pool over reg. It panics if the region is too small —
// pool sizing is a configuration decision made at server start.
func NewPool(reg *memory.Region, blockSize, blocksPerZone, zones int) *Pool {
	if blockSize <= TrailerSize {
		panic(fmt.Sprintf("rpcwire: block size %d too small", blockSize))
	}
	need := blockSize * blocksPerZone * zones
	if need > reg.Len() {
		panic(fmt.Sprintf("rpcwire: pool needs %d bytes, region has %d", need, reg.Len()))
	}
	return &Pool{Region: reg, BlockSize: blockSize, BlocksPerZone: blocksPerZone, Zones: zones,
		clearAt: make([]uint64, blocksPerZone*zones)}
}

// Size returns the pool footprint in bytes.
func (p *Pool) Size() int { return p.BlockSize * p.BlocksPerZone * p.Zones }

// ZoneAddr returns the base virtual address of zone z.
func (p *Pool) ZoneAddr(z int) uint64 {
	return p.Region.Base + uint64(z*p.BlocksPerZone*p.BlockSize)
}

// BlockAddr returns the virtual address of block b of zone z.
func (p *Pool) BlockAddr(z, b int) uint64 {
	return p.ZoneAddr(z) + uint64(b*p.BlockSize)
}

// ValidAddr returns the address of the Valid byte of block (z, b) — what a
// polling thread reads.
func (p *Pool) ValidAddr(z, b int) uint64 {
	return p.BlockAddr(z, b) + uint64(ValidOffset(p.BlockSize))
}

// ReadFrame reads the frame in block (z, b) into *buf and verifies it
// (see the function ReadFrame).
func (p *Pool) ReadFrame(z, b int, buf *[]byte) (msg []byte, flags byte, err error) {
	return ReadFrame(p.Region, p.blockOff(z, b), p.BlockSize, buf)
}

// WriteFrame encodes payload with flags into block (z, b) (see the
// function WriteFrame).
func (p *Pool) WriteFrame(z, b int, payload []byte, flags byte) error {
	return WriteFrame(p.Region, p.blockOff(z, b), p.BlockSize, nil, payload, flags)
}

// Valid reports whether block (z, b) holds a frame: its Valid byte, the
// one byte a polling thread reads. A byte that read clear is not read
// again until something writes the region (see memory.Region.Gen), which
// is what keeps a parked poller's re-probes off the region's backing; the
// caller charges the modelled read either way.
func (p *Pool) Valid(z, b int) bool {
	i, gen := z*p.BlocksPerZone+b, p.Region.Gen()+1
	if p.clearAt[i] == gen {
		return false
	}
	if p.Region.ByteAt(p.blockOff(z, b)+ValidOffset(p.BlockSize)) == validMagic {
		return true
	}
	p.clearAt[i] = gen
	return false
}

// Clear invalidates block (z, b) by zeroing its Valid byte, leaving a
// block whose page nothing has written unallocated.
func (p *Pool) Clear(z, b int) {
	var zero [1]byte
	_, _ = p.Region.WriteAt(zero[:], int64(p.blockOff(z, b)+ValidOffset(p.BlockSize))) // NewPool sized the region
}

func (p *Pool) blockOff(z, b int) int { return int(p.BlockAddr(z, b) - p.Region.Base) }

// RKey returns the region key remote writers target.
func (p *Pool) RKey() uint32 { return p.Region.RKey }

// ReadFrame reads the frame of the blockSize-byte block at offset off of
// reg into *buf and verifies it with Decode: first the trailer, then the
// encoded span its MsgLen names — message and trailer, never the rest of
// the block. It returns ErrNotValid for a block whose Valid byte is clear
// and an error wrapping ErrCRC for a corrupt frame. The message aliases
// *buf, which ReadFrame grows as needed: a snapshot that later writes into
// the block do not reach.
func ReadFrame(reg *memory.Region, off, blockSize int, buf *[]byte) (msg []byte, flags byte, err error) {
	var tr [TrailerSize]byte
	dataEnd := off + blockSize - TrailerSize
	if _, err := reg.ReadAt(tr[:], int64(dataEnd)); err != nil {
		return nil, 0, err
	}
	if !Valid(tr[:]) {
		return nil, 0, ErrNotValid
	}
	msgLen := int(binary.LittleEndian.Uint32(tr[:]))
	if msgLen > MaxPayload(blockSize) {
		return nil, 0, fmt.Errorf("%w: corrupt MsgLen %d in %d-byte block", ErrCRC, msgLen, blockSize)
	}
	span := msgLen + TrailerSize
	*buf = slices.Grow((*buf)[:0], span)[:span]
	if _, err := reg.ReadAt(*buf, int64(dataEnd-msgLen)); err != nil {
		return nil, 0, err
	}
	return Decode(*buf)
}

// WriteFrame encodes head followed by body, with flags, right-aligned in
// the blockSize-byte block at offset off of reg and marks it valid, as
// Encode does to a block in memory. It writes only the encoded span, so
// the rest of the block is left as it was, and computes the CRC over the
// pieces as it writes them.
func WriteFrame(reg *memory.Region, off, blockSize int, head, body []byte, flags byte) error {
	msgLen := len(head) + len(body)
	if msgLen > MaxPayload(blockSize) {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, msgLen, MaxPayload(blockSize))
	}
	dataEnd := off + blockSize - TrailerSize
	at := int64(dataEnd - msgLen)
	if _, err := reg.WriteAt(head, at); err != nil {
		return err
	}
	if _, err := reg.WriteAt(body, at+int64(len(head))); err != nil {
		return err
	}
	var tr [TrailerSize]byte
	binary.LittleEndian.PutUint32(tr[:], uint32(msgLen))
	tr[lenSize] = flags
	sum := crc32.Update(crcShort(0, head), crc32.IEEETable, body)
	sum = crcShort(sum, tr[:lenSize+flagsSize+seqSize])
	binary.LittleEndian.PutUint32(tr[lenSize+flagsSize+seqSize:], sum)
	tr[TrailerSize-1] = validMagic
	_, err := reg.WriteAt(tr[:], int64(dataEnd))
	return err
}

// crcShort is crc32.Update over the IEEE table for a few bytes, byte by
// byte. Unlike crc32.Update, which reaches its implementation through a
// function variable, it lets p stay on its caller's stack.
func crcShort(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, v := range p {
		crc = crc32.IEEETable[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}
