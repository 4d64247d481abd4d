package rpccore

import (
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// ScratchRing is the depth of each response staging ring (Outbox). A block
// is reused ScratchRing responses later, so the NIC must have gathered it
// by then: a server that chains a client's responses keeps them staged
// until the chain is posted, so no client may have more blocks than a ring.
const ScratchRing = 64

// Slot is one entry of a client's request window.
type Slot struct {
	Busy  bool
	ReqID uint64
	// MsgLen is the encoded message length, for re-posting the request
	// from its staging block.
	MsgLen int
}

// Window is a client's bounded set of in-flight requests. Slot b pairs
// with block b of the client's request zone and of its response zone.
type Window struct {
	Slots []Slot
	nfree int
}

// NewWindow returns a window of n free slots.
func NewWindow(n int) Window { return Window{Slots: make([]Slot, n), nfree: n} }

// SlotCount returns the request window size.
func (w *Window) SlotCount() int { return len(w.Slots) }

// Outstanding returns in-flight requests.
func (w *Window) Outstanding() int { return len(w.Slots) - w.nfree }

// FreeSlot returns the lowest free slot, or -1 when the window is full.
func (w *Window) FreeSlot() int {
	if w.nfree == 0 {
		return -1
	}
	for i := range w.Slots {
		if !w.Slots[i].Busy {
			return i
		}
	}
	return -1
}

// Find returns the busy slot carrying reqID, or -1.
func (w *Window) Find(reqID uint64) int {
	for i := range w.Slots {
		if w.Slots[i].Busy && w.Slots[i].ReqID == reqID {
			return i
		}
	}
	return -1
}

// Take marks slot b in flight.
func (w *Window) Take(b int, reqID uint64, msgLen int) {
	w.Slots[b] = Slot{Busy: true, ReqID: reqID, MsgLen: msgLen}
	w.nfree--
}

// Release frees slot b.
func (w *Window) Release(b int) {
	w.Slots[b] = Slot{}
	w.nfree++
}

// ReqWriter is the client side of the pool-write request half: requests
// are framed in a local staging block and WRITTEN — RC, UC or with an
// immediate, the transport's one choice — into a block of a server pool.
type ReqWriter struct {
	// QP and ID are the connection's current identity; the id is stamped
	// into every request. A rejoin rebinds both.
	QP *nic.QP
	ID uint16
	// Region holds the staging blocks, one per window slot. A staged frame
	// stays there until its response arrives, so it can be re-posted (and,
	// in ScaleRPC, READ by the server's warm-up fetch).
	Region *memory.Region

	h  *host.Host
	op nic.Op
}

// NewReqWriter registers the client's staging blocks, one per window slot.
func NewReqWriter(ch *host.Host, window int, op nic.Op) ReqWriter {
	return ReqWriter{
		h:  ch,
		op: op,
		Region: ch.Mem.Register(rpcwire.BlockSize*window, memory.PageSize2M,
			memory.LocalWrite|memory.RemoteRead),
	}
}

// Send frames one request in the staging block of win's first free slot
// and posts it into that block of zone of pool: the baselines' own zone
// (their client id), ScaleRPC's zone of its processing pool.
func (rw *ReqWriter) Send(t *host.Thread, win *Window, pool *rpcwire.Pool, zone int, handler uint8, payload []byte, reqID uint64) bool {
	b := win.FreeSlot()
	if b < 0 || rpcwire.HeaderSize+len(payload) > rpcwire.MaxPayload(rpcwire.BlockSize) {
		return false
	}
	// The staging write is paid together with the doorbell: PostSend
	// settles the region in one core charge.
	t.BeginWork()
	msgLen, _ := rw.Stage(t, b, handler, payload, reqID) // fits: checked above
	posted := rw.Post(t, pool, zone, b, msgLen)
	t.EndWork()
	if !posted {
		return false
	}
	win.Take(b, reqID, msgLen)
	return true
}

// Stage frames one request straight into staging block b and charges the
// write of its encoded span. It returns the message length, or false if
// the request does not fit a block.
func (rw *ReqWriter) Stage(t *host.Thread, b int, handler uint8, payload []byte, reqID uint64) (int, bool) {
	msgLen := rpcwire.HeaderSize + len(payload)
	if msgLen > rpcwire.MaxPayload(rpcwire.BlockSize) {
		return 0, false
	}
	var hdr [rpcwire.HeaderSize]byte
	rpcwire.PutHeader(hdr[:], rpcwire.Header{ReqID: reqID, Handler: handler, ClientID: rw.ID})
	_ = rpcwire.WriteFrame(rw.Region, b*rpcwire.BlockSize, rpcwire.BlockSize, hdr[:], payload, 0) // fits: checked above
	off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, msgLen)
	t.WriteMem(rw.Region.Base+uint64(b*rpcwire.BlockSize+off), span)
	return msgLen, true
}

// Post WRITEs staging block b's frame of msgLen bytes into block b of the
// given zone of pool: a first send, a retry, or a re-post into a new zone.
// The immediate names the block; a plain WRITE ignores it.
func (rw *ReqWriter) Post(t *host.Thread, pool *rpcwire.Pool, zone, b, msgLen int) bool {
	off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, msgLen)
	return t.PostSend(rw.QP, nic.SendWR{
		Op:     rw.op,
		Imm:    uint32(zone)<<8 | uint32(b),
		LKey:   rw.Region.LKey,
		LAddr:  rw.Region.Base + uint64(b*rpcwire.BlockSize+off),
		Len:    span,
		Inline: span <= rw.h.NIC.Cfg.MaxInline,
		RKey:   pool.RKey(),
		RAddr:  pool.BlockAddr(zone, b) + uint64(off),
	}) == nil
}

// ImmBlock decodes the block a WRITE_IMM completion names.
func ImmBlock(imm uint32) (zone, b int) { return int(imm >> 8), int(imm & 0xFF) }

// ReadSlot is the one read of a pool slot: probe the Valid byte (unless a
// completion already named the block), verify the frame, and copy its
// message into *buf. valid reports whether the Valid byte was set. A frame
// whose CRC fails — corruption past the NIC — is counted in rel and
// cleared, and reads as valid but not ok: loss, which the sender's retry
// recovers. The frame is read out of the block — its trailer, then the
// span the trailer names — before anything yields, because the block is
// live RDMA-writable memory that a late or duplicate write may overwrite as
// soon as virtual time moves; the message aliases *buf, never the block.
// The caller charges its read of the message and clears the block.
func ReadSlot(t *host.Thread, pool *rpcwire.Pool, rel *RelStats, z, b int, probe bool, buf *[]byte) (msg []byte, flags byte, valid, ok bool) {
	if probe {
		t.ReadMem(pool.ValidAddr(z, b), 1)
	}
	if !pool.Valid(z, b) {
		return nil, 0, false, false
	}
	msg, flags, err := pool.ReadFrame(z, b, buf)
	if err != nil {
		rel.CRCDrops++
		pool.Clear(z, b)
		t.WriteMem(pool.ValidAddr(z, b), 1)
		return nil, 0, true, false
	}
	return msg, flags, true, true
}

// ReqPool is the server side of the pool-write request half: one zone of
// blocks per client. The baselines map one per client id for the server's
// lifetime — the footprint that grows linearly with clients (Figures 3(b),
// 8, 10); ScaleRPC's two pools hold one per member of a group.
type ReqPool struct {
	*rpcwire.Pool
	parseCost sim.Duration
	rel       *RelStats
}

// NewReqPool registers and formats a pool of zones zones of blocksPerZone
// blocks. parseCost is the CPU time to parse and dispatch one request.
func NewReqPool(h *host.Host, blocksPerZone, zones int, parseCost sim.Duration, rel *RelStats) ReqPool {
	reg := h.Mem.Register(rpcwire.BlockSize*blocksPerZone*zones,
		memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	return ReqPool{
		Pool:      rpcwire.NewPool(reg, rpcwire.BlockSize, blocksPerZone, zones),
		parseCost: parseCost,
		rel:       rel,
	}
}

// Sweep is a polling server's probe of block (z, b): read the Valid byte,
// and take the request if one is there. The caller holds a deferred-charge
// region open over the whole pass.
func (p *ReqPool) Sweep(t *host.Thread, buf *[]byte, z, b int) ([]byte, bool) {
	return p.take(t, buf, z, b, true)
}

// Take consumes the request in block (z, b), which a completion named.
func (p *ReqPool) Take(t *host.Thread, buf *[]byte, z, b int) ([]byte, bool) {
	return p.take(t, buf, z, b, false)
}

// take reads the request in block (z, b) into *buf and charges the read of
// the right-aligned message and the parse. The caller answers it and then
// calls Release.
func (p *ReqPool) take(t *host.Thread, buf *[]byte, z, b int, probe bool) ([]byte, bool) {
	req, _, _, ok := ReadSlot(t, p.Pool, p.rel, z, b, probe, buf)
	if !ok {
		return nil, false
	}
	p.Parse(t, z, b, req)
	return req, true
}

// Parse charges the read of request req, as ReadSlot took it from block
// (z, b) — its right-aligned encoded span — and its parse and dispatch.
func (p *ReqPool) Parse(t *host.Thread, z, b int, req []byte) {
	off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, len(req))
	t.ReadMem(p.BlockAddr(z, b)+uint64(off), span)
	t.Work(p.parseCost)
}

// Release marks block (z, b) consumed.
func (p *ReqPool) Release(t *host.Thread, z, b int) {
	p.Clear(z, b)
	t.WriteMem(p.ValidAddr(z, b), 1)
}

// RespZone addresses a client's response blocks for the write response
// half.
type RespZone struct {
	Addr uint64
	RKey uint32
}

// RespPool is the client side of the write response half: the server
// WRITEs the response for slot b into block b, and the client polls the
// blocks of its busy slots. One block past the window is left for the
// server's control writes (ScaleRPC's context_switch_event).
type RespPool struct {
	*rpcwire.Pool
	rel *RelStats
	// buf holds a stable snapshot of the frame being delivered (ReadSlot).
	buf []byte
}

// NewRespPool registers the response blocks and wakes sig on every write
// into them.
func NewRespPool(ch *host.Host, sig *sim.Signal, window int, rel *RelStats) RespPool {
	reg := ch.Mem.Register(rpcwire.BlockSize*(window+1), memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	ch.NIC.WatchRegion(reg.RKey, sig)
	return RespPool{Pool: rpcwire.NewPool(reg, rpcwire.BlockSize, window+1, 1), rel: rel}
}

// Zone returns the address the server writes responses to.
func (r *RespPool) Zone() RespZone { return RespZone{Addr: r.Region.Base, RKey: r.Region.RKey} }

// Poll scans the response blocks of the in-flight slots. The scan is one
// deferred-charge region closed lazily: an empty poll's residue is absorbed
// into the caller's WaitSignal park.
func (r *RespPool) Poll(t *host.Thread, win *Window, fn func(Response)) int {
	t.BeginWork()
	defer t.EndWorkLazy()
	got := 0
	for b := range win.Slots {
		if !win.Slots[b].Busy {
			continue
		}
		// A corrupted response reads as absent and keeps its slot in
		// flight: the deadline/retry layer recovers the call.
		msg, flags, _, ok := ReadSlot(t, r.Pool, r.rel, 0, b, true, &r.buf)
		if !ok {
			continue
		}
		t.ReadMem(r.BlockAddr(0, b), len(msg)+rpcwire.TrailerSize)
		hdr, body, herr := rpcwire.ParseHeader(msg)
		r.Release(t, b)
		if herr != nil {
			continue
		}
		if hdr.ReqID != win.Slots[b].ReqID {
			// A stale response from a previous occupant of this slot (a
			// zone reused across rejoin, or a late duplicate): the slot's
			// own response is still outstanding, so keep it busy.
			r.rel.StaleResponses++
			continue
		}
		win.Release(b)
		fn(Response{ReqID: hdr.ReqID, Payload: body, Err: flags&rpcwire.FlagError != 0})
		got++
	}
	return got
}

// Release marks response block b consumed.
func (r *RespPool) Release(t *host.Thread, b int) {
	r.Clear(0, b)
	t.WriteMem(r.ValidAddr(0, b), 1)
}

// Outbox is a server thread's response staging ring: each response is
// framed in the next of its blocks and sent from there, and the sends wait
// in a chain until Post rings one doorbell for them. Buf assembles the
// response; handlers write their output into it.
type Outbox struct {
	Buf []byte

	h     *host.Host
	ring  *memory.Region
	idx   int
	chain []nic.SendWR
}

// NewOutbox registers the staging ring.
func NewOutbox(h *host.Host) Outbox {
	return Outbox{
		Buf:  make([]byte, rpcwire.BlockSize),
		h:    h,
		ring: h.Mem.Register(rpcwire.BlockSize*ScratchRing, memory.PageSize2M, memory.LocalWrite),
	}
}

// next advances the ring and returns the next block's offset in it.
func (o *Outbox) next() int {
	off := o.idx * rpcwire.BlockSize
	o.idx = (o.idx + 1) % ScratchRing
	return off
}

// Write frames Buf[:n] with flags in the next ring block, charges the
// staging write, and chains an RC WRITE of the frame into block slot of
// the client's response zone.
func (o *Outbox) Write(t *host.Thread, n int, flags byte, zone RespZone, slot int) {
	blockOff := o.next()
	if err := rpcwire.WriteFrame(o.ring, blockOff, rpcwire.BlockSize, nil, o.Buf[:n], flags); err != nil {
		return
	}
	off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, n)
	t.WriteMem(o.ring.Base+uint64(blockOff+off), span)
	o.chain = append(o.chain, nic.SendWR{
		Op:     nic.OpWrite,
		LKey:   o.ring.LKey,
		LAddr:  o.ring.Base + uint64(blockOff+off),
		Len:    span,
		Inline: span <= o.h.NIC.Cfg.MaxInline,
		RKey:   zone.RKey,
		RAddr:  zone.Addr + uint64(slot*rpcwire.BlockSize+off),
	})
}

// Send copies Buf[:n] unframed into the next ring block, charges the
// staging write, and chains a UD SEND of it, carrying imm, to QP dstQPN on
// NIC dstNIC.
func (o *Outbox) Send(t *host.Thread, n int, imm uint32, dstNIC int, dstQPN uint32) {
	blockOff := o.next()
	_, _ = o.ring.WriteAt(o.Buf[:n], int64(blockOff)) // n fits the block: Buf is one block
	t.WriteMem(o.ring.Base+uint64(blockOff), n)
	o.chain = append(o.chain, nic.SendWR{
		Op:     nic.OpSend,
		Imm:    imm,
		LKey:   o.ring.LKey,
		LAddr:  o.ring.Base + uint64(blockOff),
		Len:    n,
		Inline: n <= o.h.NIC.Cfg.MaxInline,
		DstNIC: dstNIC,
		DstQPN: dstQPN,
	})
}

// Post sends the staged chain on qp behind one doorbell. Every WR in it
// answers through qp: callers post before they respond to another client.
// A failed post is the client's loss to recover from, as for any response.
func (o *Outbox) Post(t *host.Thread, qp *nic.QP) {
	if len(o.chain) == 0 {
		return
	}
	t.PostSendBatch(qp, o.chain)
	o.chain = o.chain[:0]
}
