package nic

import (
	"math/bits"

	"scalerpc/internal/fabric"
)

// Arena pooling for the NIC hot path. Packets, fabric messages and payload
// copies are the dominant steady-state allocations of a busy simulation, and
// all of them have fully tractable lifetimes, so they are recycled through
// free lists instead of the garbage collector.
//
// One Arena serves every NIC of a cluster (cluster.New hands it to each host
// through Deps.Arena). Most pooled objects are taken by one NIC and freed by
// another — a packet and its gathered payload by the sender and the
// receiver, a fabric message by whichever side sent it and the side it
// reached — so per-NIC free lists would fill on the receivers while the
// senders kept allocating. The simulation is single-threaded, so the arena
// needs no locking; it must not be shared across clusters that run
// concurrently. The zero Arena is empty and ready to use. Its caps below
// bound the whole cluster's free lists, not one NIC's; no free in full-mode
// scale10k, tenantmix, fig12 or sec51 reaches one.
//
// Ownership rules (the arena contract — see also TestArenaAliasing):
//
//   - A packet travels sender → fabric → receiver; the RECEIVING NIC owns it
//     once processIn's commit action has run and returns it to the arena
//     then, unless noRecycle is set.
//   - pkt.data is recycled together with the packet only when pkt.ownsData:
//     payload copies the engine made itself (DMA gathers, READ responses).
//     Inline RC/DCT sends alias the inflight entry's buffer instead
//     (ownsData=false); that buffer retires with the entry when its ACK
//     arrives — provably after the receiver committed the data, and any
//     still-travelling retransmitted copy of it is rejected by the PSN check
//     without touching the payload.
//   - Fault injections break the single-owner story and set noRecycle:
//     duplicated deliveries alias one packet across two deliveries, and torn
//     writes hold pkt.data beyond the commit action. Those packets (and the
//     inflight buffers of QPs that die in the error state) are left to the
//     GC — correctness first, the pool is only an optimization.
type Arena struct {
	pkts []*packet
	msgs []*fabric.Message
	// bufs holds payload backing arrays in power-of-two size classes
	// (64 B .. 64 KB); larger payloads are not pooled.
	bufs [bufMaxClass + 1][][]byte
}

const (
	bufMinClass = 6  // 64 B
	bufMaxClass = 16 // 64 KB
	pktPoolCap  = 1024
	msgPoolCap  = 1024
	bufPoolCap  = 512
)

func (n *NIC) getPacket() *packet {
	if k := len(n.arena.pkts); k > 0 {
		p := n.arena.pkts[k-1]
		n.arena.pkts = n.arena.pkts[:k-1]
		return p
	}
	return &packet{}
}

// freePacket recycles a packet the caller finished with, honoring the
// noRecycle pin and the data-ownership flag.
func (n *NIC) freePacket(p *packet) {
	if p.noRecycle {
		return
	}
	if p.ownsData {
		n.putBuf(p.data)
	}
	*p = packet{}
	if len(n.arena.pkts) < pktPoolCap {
		n.arena.pkts = append(n.arena.pkts, p)
	}
}

func (n *NIC) getMsg() *fabric.Message {
	if k := len(n.arena.msgs); k > 0 {
		m := n.arena.msgs[k-1]
		n.arena.msgs = n.arena.msgs[:k-1]
		return m
	}
	return &fabric.Message{}
}

func (n *NIC) putMsg(m *fabric.Message) {
	*m = fabric.Message{}
	if len(n.arena.msgs) < msgPoolCap {
		n.arena.msgs = append(n.arena.msgs, m)
	}
}

// getBuf returns a length-size buffer from the size-class free lists.
func (n *NIC) getBuf(size int) []byte {
	if size <= 0 {
		return nil
	}
	if size > 1<<bufMaxClass {
		return make([]byte, size)
	}
	c := bufClass(size)
	fl := &n.arena.bufs[c]
	if k := len(*fl); k > 0 {
		b := (*fl)[k-1]
		*fl = (*fl)[:k-1]
		return b[:size]
	}
	return make([]byte, size, 1<<uint(c))
}

// putBuf returns a buffer to its size class. Buffers whose capacity is not
// an exact pool class land in the next class down, which only ever
// under-promises capacity.
func (n *NIC) putBuf(b []byte) {
	c := cap(b)
	if c < 1<<bufMinClass || c > 1<<bufMaxClass {
		return
	}
	cls := bits.Len(uint(c)) - 1 // floor log2
	fl := &n.arena.bufs[cls]
	if len(*fl) < bufPoolCap {
		*fl = append(*fl, b[:0])
	}
}

// bufClass is the smallest pool class holding size bytes.
func bufClass(size int) int {
	c := bits.Len(uint(size - 1))
	if c < bufMinClass {
		c = bufMinClass
	}
	return c
}

// ctl allocates a pooled control packet (ACK/NAK/responses) with the common
// header fields set; callers fill op-specific extras.
func (n *NIC) ctl(op pktOp, transport QPType, dstQPN uint32, psn uint64) *packet {
	p := n.getPacket()
	p.op, p.transport, p.dstQPN, p.psn = op, transport, dstQPN, psn
	return p
}
