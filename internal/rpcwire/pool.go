package rpcwire

import (
	"fmt"

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
	return &Pool{Region: reg, BlockSize: blockSize, BlocksPerZone: blocksPerZone, Zones: zones}
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

// Block returns block (z, b) for reading: a view of its page, or of the
// shared zero page while nothing has written the block's page (see
// memory.Region.ReadView). Write a block with Clear or WriteBlock.
func (p *Pool) Block(z, b int) []byte {
	return p.Region.ReadView(p.blockOff(z, b), p.BlockSize)
}

// WriteBlock returns block (z, b) for writing, allocating its page: a live
// view that later writes into the block also reach.
func (p *Pool) WriteBlock(z, b int) []byte {
	return p.Region.WriteView(p.blockOff(z, b), p.BlockSize)
}

// Valid reports whether block (z, b) holds a frame: its Valid byte, the
// one byte a polling thread reads.
func (p *Pool) Valid(z, b int) bool {
	return p.Region.ByteAt(p.blockOff(z, b)+ValidOffset(p.BlockSize)) == validMagic
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
