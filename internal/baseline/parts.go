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
// The pool-write request half and the write response half are ScaleRPC's
// own parts, in rpccore — which is what makes RawWrite "ScaleRPC with every
// optimization disabled". This package adds what only the baselines need:
// the UD response half (Worker.SendResponse, UDRecv) and the server's
// worker shell with its one dispatch (Shell, Worker.Dispatch).
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
	"slices"

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

// UDRecv is the client side of the UD response half: a UD QP with a
// pre-posted ring of receive blocks and a completion queue to poll.
type UDRecv struct {
	QP *nic.QP

	cq       *nic.CQ
	ring     *memory.Region
	overhead sim.Duration
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
func (u *UDRecv) PostRing(ch *host.Host, depth int) {
	u.ring = ch.Mem.Register(rpcwire.BlockSize*depth, memory.PageSize2M, memory.LocalWrite)
	for i := 0; i < depth; i++ {
		u.QP.PostRecv(u.recvWR(uint64(i)))
	}
}

func (u *UDRecv) recvWR(i uint64) nic.RecvWR {
	return nic.RecvWR{WRID: i, LKey: u.ring.LKey, LAddr: u.ring.Base + i*rpcwire.BlockSize, Len: rpcwire.BlockSize}
}

// Poll drains the response CQ, re-posting each consumed receive, and
// matches responses to slots by request id.
func (u *UDRecv) Poll(t *host.Thread, win *rpccore.Window, fn func(rpccore.Response)) int {
	t.Work(u.overhead)
	got := 0
	for _, e := range t.PollCQ(u.cq, 16) {
		if e.Status != nic.CQOK {
			continue
		}
		wr := u.recvWR(e.WRID)
		t.ReadMem(wr.LAddr, e.ByteLen)
		u.buf = slices.Grow(u.buf[:0], e.ByteLen)[:e.ByteLen]
		_, _ = u.ring.ReadAt(u.buf, int64(e.WRID)*rpcwire.BlockSize) // a landed SEND fits its block
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

// Worker is one server thread's share of the shell: its response outbox,
// the response being assembled, and the snapshot of the request being
// served.
type Worker struct {
	Idx int
	// Sig wakes a sweeping worker; QP and CQ are the worker's own UD
	// endpoint or completion queue, for the transports that give it one.
	Sig *sim.Signal
	QP  *nic.QP
	CQ  *nic.CQ
	// Served counts requests this worker processed.
	Served uint64
	// Req holds the snapshot of the request being served (ReqPool.Sweep and
	// Take read into it).
	Req []byte

	sh *Shell
	// out stages the responses. Dispatch assembles one in out.Buf[:n]
	// (no memory-model cost) with flags its error bit; WriteResponse and
	// SendResponse post it on its own, one WR per doorbell.
	out   rpccore.Outbox
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

	h        *host.Host
	handlers [256]rpccore.Handler
	tel      telemetry.Scope
	started  bool
}

// NewShell starts a server on h under the given telemetry scope. window is
// the per-client request window the reply cache is sized for.
func NewShell(h *host.Host, scope string, window int) *Shell {
	sh := &Shell{
		Rel:     rpccore.SharedRel(h.Tel.Registry()),
		Replies: rpccore.NewReplyCache(window),
		h:       h,
	}
	if reg := h.Tel.Registry(); reg != nil {
		sh.tel = reg.UniqueScope(scope)
	}
	return sh
}

// AddWorker registers the next worker's outbox and served counter.
func (sh *Shell) AddWorker() *Worker {
	w := &Worker{
		Idx: len(sh.Workers),
		Sig: sim.NewSignal(sh.h.Env),
		sh:  sh,
		out: rpccore.NewOutbox(sh.h),
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
		w.n, w.flags = rpcwire.PutHeader(w.out.Buf, rpcwire.Header{ClientID: client}), rpcwire.FlagError
		return true
	}
	buf := w.out.Buf
	n := rpcwire.PutHeader(buf, rpcwire.Header{ReqID: hdr.ReqID, Handler: hdr.Handler, ClientID: client})
	out := buf[n : len(buf)-rpcwire.TrailerSize]
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
	sh.Replies.Commit(client, hdr.ReqID, buf[n:w.n], w.flags != 0)
	return true
}

// WriteResponse is the server side of the write response half: frame the
// worker's response in the next outbox block and WRITE it into block slot
// of the client's response zone.
func (w *Worker) WriteResponse(t *host.Thread, qp *nic.QP, zone rpccore.RespZone, slot int) {
	w.out.Write(t, w.n, w.flags, zone, slot)
	w.out.Post(t, qp)
}

// SendResponse is the server side of the UD response half: copy the
// worker's response into the next outbox block and SEND it to the client's
// UD QP. The error bit travels as the send immediate.
func (w *Worker) SendResponse(t *host.Thread, qp *nic.QP, dstNIC int, dstQPN uint32) {
	var imm uint32
	if w.flags&rpcwire.FlagError != 0 {
		imm = 1
	}
	w.out.Send(t, w.n, imm, dstNIC, dstQPN)
	w.out.Post(t, qp)
}
