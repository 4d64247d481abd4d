// Package baseline holds the parts the paper's Table 2 baselines are
// assembled from. Table 2 describes each baseline as one choice per
// direction, and that is how the four transport packages below this
// directory are built: each names one request half and one response half
// and keeps only what distinguishes it — defaults, the QPs a connection
// needs, and how its server discovers a new request.
//
//	            request half          response half      discovery
//	RawWrite    pool write, RC WRITE  write, RC WRITE    pool sweep
//	HERD        pool write, UC WRITE  UD SEND            pool sweep
//	FaSST       UD SEND (own)         UD SEND            UD recv ring
//	selfRPC     pool write, RC W_IMM  write, RC WRITE    CQ immediate
//
// Every mechanism lives here exactly once: the client's slot window
// (Window); the pool-write request half (ReqWriter on the client, ReqPool
// on the server); the write response half (Worker.WriteResponse, RespPool);
// the UD response half (Worker.SendResponse, UDRecv); and the server's
// worker shell with its one dispatch (Shell, Worker.Dispatch). The parts
// are concrete types: no interface and no per-operation closure sits on
// the request path.
//
// CPU time is charged the way ScaleRPC charges it (host.Thread.BeginWork):
// a scan's probes accumulate in one deferred-charge region and land as one
// core charge, not one scheduler wake per slot. A client's RespPool.Poll
// closes its region lazily, so the residue — at most one window of probes —
// is absorbed into the caller's WaitSignal park. A server's sweep closes
// its region with a blocking EndWork before the worker parks: a worker
// woken while its residue still ran on a core would hold two cores at
// once. ReqWriter.Send pays its staging write with the doorbell.
package baseline

import (
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// UDClientOverhead is the extra per-operation client CPU of a UD endpoint
// (recv reposting, address handles, CQ doorbells — the UD client tax of
// §3.6.2), the default of HERD's and FaSST's ClientOverhead.
const UDClientOverhead sim.Duration = 350

// PollTimeout bounds a baseline server worker's sleep while it finds no
// request.
const PollTimeout = 20 * sim.Microsecond

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
// immediate, the transport's one choice — into block (ID, slot) of the
// server's statically mapped pool.
type ReqWriter struct {
	// QP and ID are the connection's current identity; the id is also its
	// zone in the server pool. RawWrite's membership rebinds both on a
	// rejoin.
	QP *nic.QP
	ID uint16

	h     *host.Host
	pool  *rpcwire.Pool
	stage *memory.Region
	op    nic.Op
}

// NewReqWriter registers the client's staging blocks, one per window slot.
func NewReqWriter(ch *host.Host, pool *rpcwire.Pool, op nic.Op) ReqWriter {
	return ReqWriter{
		h:    ch,
		pool: pool,
		op:   op,
		stage: ch.Mem.Register(pool.BlockSize*pool.BlocksPerZone, memory.PageSize2M,
			memory.LocalWrite|memory.RemoteRead),
	}
}

// Send frames one request straight into the staging block of the first
// free slot and posts it.
func (rw *ReqWriter) Send(t *host.Thread, win *Window, handler uint8, payload []byte, reqID uint64) bool {
	b := win.FreeSlot()
	bs := rw.pool.BlockSize
	msgLen := rpcwire.HeaderSize + len(payload)
	if b < 0 || msgLen > rpcwire.MaxPayload(bs) {
		return false
	}
	off, span := rpcwire.EncodedSpan(bs, msgLen)
	block := rw.stage.Bytes()[b*bs : (b+1)*bs]
	msg := block[off : off+msgLen]
	rpcwire.PutHeader(msg, rpcwire.Header{ReqID: reqID, Handler: handler, ClientID: rw.ID})
	copy(msg[rpcwire.HeaderSize:], payload)
	// msg already sits right-aligned where Encode puts it: this seals the
	// trailer in place.
	if err := rpcwire.Encode(block, msg, 0); err != nil {
		return false
	}
	// The staging write is paid together with the doorbell: PostSend
	// settles the region in one core charge.
	t.BeginWork()
	t.WriteMem(rw.stage.Base+uint64(b*bs+off), span)
	posted := rw.Post(t, b, msgLen)
	t.EndWork()
	if !posted {
		return false
	}
	win.Take(b, reqID, msgLen)
	return true
}

// Post WRITEs slot b's staged frame of msgLen bytes into the client's zone
// (first send, retry, or re-post into a new zone after a rejoin). The
// immediate names the block; a plain WRITE ignores it.
func (rw *ReqWriter) Post(t *host.Thread, b, msgLen int) bool {
	off, span := rpcwire.EncodedSpan(rw.pool.BlockSize, msgLen)
	return t.PostSend(rw.QP, nic.SendWR{
		Op:     rw.op,
		Imm:    uint32(rw.ID)<<8 | uint32(b),
		LKey:   rw.stage.LKey,
		LAddr:  rw.stage.Base + uint64(b*rw.pool.BlockSize+off),
		Len:    span,
		Inline: span <= rw.h.NIC.Cfg.MaxInline,
		RKey:   rw.pool.RKey(),
		RAddr:  rw.pool.BlockAddr(int(rw.ID), b) + uint64(off),
	}) == nil
}

// ImmBlock decodes the block a WRITE_IMM completion names.
func ImmBlock(imm uint32) (zone, b int) { return int(imm >> 8), int(imm & 0xFF) }

// ReqPool is the server side of the pool-write request half: one zone per
// client, mapped for the server's lifetime — the footprint that grows
// linearly with clients (Figures 3(b), 8, 10).
type ReqPool struct {
	*rpcwire.Pool
	parseCost sim.Duration
	rel       *rpccore.RelStats
}

// NewReqPool registers and formats the pool. parseCost is the CPU time to
// parse and dispatch one request.
func (sh *Shell) NewReqPool(blocksPerClient, maxClients int, parseCost sim.Duration) ReqPool {
	reg := sh.h.Mem.Register(sh.blockSize*blocksPerClient*maxClients,
		memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	return ReqPool{
		Pool:      rpcwire.NewPool(reg, sh.blockSize, blocksPerClient, maxClients),
		parseCost: parseCost,
		rel:       sh.Rel,
	}
}

// Sweep is a polling server's probe of block (z, b): read the Valid byte,
// and Take the request if one is there. The caller holds a deferred-charge
// region open over the whole pass (see the package comment).
func (p *ReqPool) Sweep(t *host.Thread, w *Worker, z, b int) ([]byte, bool) {
	t.ReadMem(p.ValidAddr(z, b), 1)
	return p.Take(t, w, z, b)
}

// Take consumes the request in block (z, b), if it holds one: verify the
// frame, snapshot it, and charge the read of the right-aligned message and
// the parse. The caller answers it and then calls Release.
func (p *ReqPool) Take(t *host.Thread, w *Worker, z, b int) ([]byte, bool) {
	block := p.Block(z, b)
	if !rpcwire.Valid(block) {
		return nil, false
	}
	payload, _, err := rpcwire.Decode(block)
	if err != nil {
		// Valid landed but the CRC failed: corruption past the NIC. Treat
		// as loss — the client's retry re-delivers.
		p.rel.CRCDrops++
		p.Release(t, z, b)
		return nil, false
	}
	// Snapshot the CRC-validated frame before yielding: the charges below
	// and the handler all advance virtual time, and the pool block is live
	// RDMA-writable memory an in-flight duplicate write may overwrite.
	w.req = append(w.req[:0], payload...)
	t.ReadMem(p.BlockAddr(z, b)+uint64(p.BlockSize-rpcwire.TrailerSize-len(payload)),
		len(payload)+rpcwire.TrailerSize)
	t.Work(p.parseCost)
	return w.req, true
}

// Release marks block (z, b) consumed.
func (p *ReqPool) Release(t *host.Thread, z, b int) {
	rpcwire.Clear(p.Block(z, b))
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
// blocks of its busy slots.
type RespPool struct {
	*rpcwire.Pool
	rel *rpccore.RelStats
	// buf holds a stable snapshot of the frame being delivered: the block
	// is live RDMA-writable memory, and a late duplicate response may
	// overwrite it as soon as virtual time moves — in the callback, or when
	// Poll's charges settle.
	buf []byte
}

// NewRespPool registers the response blocks and wakes sig on every write
// into them.
func NewRespPool(ch *host.Host, sig *sim.Signal, blockSize, window int, rel *rpccore.RelStats) RespPool {
	reg := ch.Mem.Register(blockSize*(window+1), memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	ch.NIC.WatchRegion(reg.RKey, sig)
	return RespPool{Pool: rpcwire.NewPool(reg, blockSize, window+1, 1), rel: rel}
}

// Zone returns the address the server writes responses to.
func (r *RespPool) Zone() RespZone { return RespZone{Addr: r.Region.Base, RKey: r.Region.RKey} }

// Poll scans the response blocks of the in-flight slots. The scan is one
// deferred-charge region closed lazily: an empty poll's residue is absorbed
// into the caller's WaitSignal park.
func (r *RespPool) Poll(t *host.Thread, win *Window, fn func(rpccore.Response)) int {
	t.BeginWork()
	defer t.EndWorkLazy()
	got := 0
	for b := range win.Slots {
		if !win.Slots[b].Busy {
			continue
		}
		t.ReadMem(r.ValidAddr(0, b), 1)
		block := r.Block(0, b)
		if !rpcwire.Valid(block) {
			continue
		}
		payload, flags, err := rpcwire.Decode(block)
		if err != nil {
			// Corrupted response: treat as loss, keep the slot in flight so
			// the deadline/retry layer recovers the call.
			r.rel.CRCDrops++
			rpcwire.Clear(block)
			t.WriteMem(r.ValidAddr(0, b), 1)
			continue
		}
		r.buf = append(r.buf[:0], payload...)
		t.ReadMem(r.BlockAddr(0, b), len(payload)+rpcwire.TrailerSize)
		hdr, body, herr := rpcwire.ParseHeader(r.buf)
		rpcwire.Clear(block)
		t.WriteMem(r.ValidAddr(0, b), 1)
		if herr != nil || hdr.ReqID != win.Slots[b].ReqID {
			// A stale response from a previous occupant of this slot (a
			// zone reused across rejoin, or a late duplicate): the slot's
			// own response is still outstanding, so keep it busy.
			continue
		}
		win.Release(b)
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: flags&rpcwire.FlagError != 0})
		got++
	}
	return got
}

// UDRecv is the client side of the UD response half: a UD QP with a
// pre-posted ring of receive blocks and a completion queue to poll.
type UDRecv struct {
	QP *nic.QP

	cq        *nic.CQ
	ring      *memory.Region
	blockSize int
	overhead  sim.Duration
	// buf snapshots the response being delivered: its receive block is
	// re-posted (and may be refilled) before the callback runs.
	buf []byte
}

// NewUDRecv creates the endpoint; its completions wake sig. overhead is
// charged once per Poll.
func NewUDRecv(ch *host.Host, sig *sim.Signal, overhead sim.Duration) UDRecv {
	cq := ch.NIC.CreateCQ()
	cq.Sig = sig
	return UDRecv{QP: ch.NIC.CreateQP(nic.UD, cq, cq), cq: cq, overhead: overhead}
}

// PostRing registers and pre-posts depth receive blocks.
func (u *UDRecv) PostRing(ch *host.Host, blockSize, depth int) {
	u.blockSize = blockSize
	u.ring = ch.Mem.Register(blockSize*depth, memory.PageSize2M, memory.LocalWrite)
	for i := 0; i < depth; i++ {
		u.QP.PostRecv(u.recvWR(uint64(i)))
	}
}

func (u *UDRecv) recvWR(i uint64) nic.RecvWR {
	return nic.RecvWR{WRID: i, LKey: u.ring.LKey, LAddr: u.ring.Base + i*uint64(u.blockSize), Len: u.blockSize}
}

// Poll drains the response CQ, re-posting each consumed receive, and
// matches responses to slots by request id.
func (u *UDRecv) Poll(t *host.Thread, win *Window, fn func(rpccore.Response)) int {
	t.Work(u.overhead)
	got := 0
	for _, e := range t.PollCQ(u.cq, 16) {
		if e.Status != nic.CQOK {
			continue
		}
		wr := u.recvWR(e.WRID)
		t.ReadMem(wr.LAddr, e.ByteLen)
		off := e.WRID * uint64(u.blockSize)
		u.buf = append(u.buf[:0], u.ring.Bytes()[off:off+uint64(e.ByteLen)]...)
		t.PostRecv(u.QP, wr)
		hdr, body, err := rpcwire.ParseHeader(u.buf)
		if err != nil {
			continue
		}
		b := win.Find(hdr.ReqID)
		if b < 0 {
			continue // stale or duplicate
		}
		win.Release(b)
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: e.ImmValid && e.Imm == 1})
		got++
	}
	return got
}

// scratchRing is the number of response staging blocks per worker; the
// ring must be deep enough that the NIC has gathered a block before it is
// reused.
const scratchRing = 64

// Worker is one server thread's share of the shell: a ring of response
// staging blocks, the response being assembled, and the snapshot of the
// request being served.
type Worker struct {
	Idx int
	// Sig wakes a sweeping worker; QP and CQ are the worker's own UD
	// endpoint or completion queue, for the transports that give it one.
	Sig *sim.Signal
	QP  *nic.QP
	CQ  *nic.CQ
	// Served counts requests this worker processed.
	Served uint64

	sh         *Shell
	scratch    *memory.Region
	scratchIdx int
	req        []byte
	// The response: buf[:n] is header + payload (buf itself carries no
	// memory-model cost), flags its error bit.
	buf   []byte
	n     int
	flags byte
}

// Shell is what every baseline server is built around: the workers, the
// handler table and the exactly-once reply cache consulted before every
// handler run.
type Shell struct {
	Workers []*Worker
	// Rel is the registry-shared reliability counter block.
	Rel     *rpccore.RelStats
	Replies *rpccore.ReplyCache

	h         *host.Host
	blockSize int
	handlers  [256]rpccore.Handler
	tel       telemetry.Scope
	started   bool
}

// NewShell starts a server on h under the given telemetry scope. window is
// the per-client request window the reply cache is sized for.
func NewShell(h *host.Host, scope string, blockSize, window int) *Shell {
	sh := &Shell{
		Rel:       rpccore.SharedRel(h.Tel.Registry()),
		Replies:   rpccore.NewReplyCache(window),
		h:         h,
		blockSize: blockSize,
	}
	if reg := h.Tel.Registry(); reg != nil {
		sh.tel = reg.UniqueScope(scope)
	}
	return sh
}

// AddWorker registers the next worker's scratch ring and served counter.
func (sh *Shell) AddWorker() *Worker {
	w := &Worker{
		Idx:     len(sh.Workers),
		Sig:     sim.NewSignal(sh.h.Env),
		sh:      sh,
		scratch: sh.h.Mem.Register(sh.blockSize*scratchRing, memory.PageSize2M, memory.LocalWrite),
		buf:     make([]byte, sh.blockSize),
	}
	sh.tel.Scope(fmt.Sprintf("server.w%d", w.Idx)).CounterVar("served", &w.Served)
	sh.Workers = append(sh.Workers, w)
	return w
}

// Register installs a handler.
func (sh *Shell) Register(id uint8, fn rpccore.Handler) { sh.handlers[id] = fn }

// Spawn launches one thread per worker, named <prefix>-w<i>; later calls
// do nothing.
func (sh *Shell) Spawn(prefix string, run func(*host.Thread, *Worker)) {
	if sh.started {
		return
	}
	sh.started = true
	for _, w := range sh.Workers {
		w := w
		sh.h.Spawn(fmt.Sprintf("%s-w%d", prefix, w.Idx), func(t *host.Thread) { run(t, w) })
	}
}

// Served returns the total number of requests processed.
func (sh *Shell) Served() uint64 {
	var n uint64
	for _, w := range sh.Workers {
		n += w.Served
	}
	return n
}

// Dispatch runs the handler for req on behalf of client and assembles the
// response in the worker; it reports whether there is one to send.
// Duplicates — retries after a timeout or a crash/rejoin re-post — are
// answered from the reply cache without re-running the handler, and a
// duplicate of a request still executing gets no response of its own.
func (w *Worker) Dispatch(t *host.Thread, client uint16, req []byte) bool {
	sh := w.sh
	hdr, body, err := rpcwire.ParseHeader(req)
	if err != nil {
		w.n, w.flags = rpcwire.PutHeader(w.buf, rpcwire.Header{ClientID: client}), rpcwire.FlagError
		return true
	}
	n := rpcwire.PutHeader(w.buf, rpcwire.Header{ReqID: hdr.ReqID, Handler: hdr.Handler, ClientID: client})
	out := w.buf[n : len(w.buf)-rpcwire.TrailerSize]
	w.n, w.flags = n, 0
	if dup, rep, ready := sh.Replies.Admit(client, hdr.ReqID); dup {
		sh.Rel.DedupHits++
		if rep.Err {
			w.flags = rpcwire.FlagError
		}
		w.n += copy(out, rep.Payload)
		return ready
	}
	if fn := sh.handlers[hdr.Handler]; fn != nil {
		w.n += fn(t, client, body, out)
	} else {
		w.flags = rpcwire.FlagError
	}
	sh.Replies.Commit(client, hdr.ReqID, w.buf[n:w.n], w.flags != 0)
	return true
}

// nextScratch advances the scratch ring and returns the next block's
// offset in it.
func (w *Worker) nextScratch() int {
	off := w.scratchIdx * w.sh.blockSize
	w.scratchIdx = (w.scratchIdx + 1) % scratchRing
	return off
}

// WriteResponse is the server side of the write response half: frame the
// worker's response in the next scratch block and WRITE it into block slot
// of the client's response zone.
func (w *Worker) WriteResponse(t *host.Thread, qp *nic.QP, zone RespZone, slot int) {
	bs := w.sh.blockSize
	blockOff := w.nextScratch()
	if err := rpcwire.Encode(w.scratch.Bytes()[blockOff:blockOff+bs], w.buf[:w.n], w.flags); err != nil {
		return
	}
	off, span := rpcwire.EncodedSpan(bs, w.n)
	t.WriteMem(w.scratch.Base+uint64(blockOff+off), span)
	t.PostSend(qp, nic.SendWR{
		Op:     nic.OpWrite,
		LKey:   w.scratch.LKey,
		LAddr:  w.scratch.Base + uint64(blockOff+off),
		Len:    span,
		Inline: span <= w.sh.h.NIC.Cfg.MaxInline,
		RKey:   zone.RKey,
		RAddr:  zone.Addr + uint64(slot*bs+off),
	})
}

// SendResponse is the server side of the UD response half: copy the
// worker's response into the next scratch block and SEND it to the
// client's UD QP. The error bit travels as the send immediate.
func (w *Worker) SendResponse(t *host.Thread, qp *nic.QP, dstNIC int, dstQPN uint32) {
	blockOff := w.nextScratch()
	copy(w.scratch.Bytes()[blockOff:], w.buf[:w.n])
	t.WriteMem(w.scratch.Base+uint64(blockOff), w.n)
	wr := nic.SendWR{
		Op:     nic.OpSend,
		LKey:   w.scratch.LKey,
		LAddr:  w.scratch.Base + uint64(blockOff),
		Len:    w.n,
		Inline: w.n <= w.sh.h.NIC.Cfg.MaxInline,
		DstNIC: dstNIC,
		DstQPN: dstQPN,
	}
	if w.flags&rpcwire.FlagError != 0 {
		wr.Imm = 1
	}
	t.PostSend(qp, wr)
}
