// Package herdrpc implements the HERD RPC baseline (Kalia et al.,
// SIGCOMM'14; Table 2 of the paper): clients post requests with UC writes
// into a statically mapped server pool, and the server replies with UD
// sends. One UD QP per server worker keeps the server's outbound path off
// the QP-context cache treadmill, but the static request pool still grows
// with the client count — the reason HERD degrades (more gently than
// RawWrite) at scale in Figure 8.
package herdrpc

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

// ServerConfig sizes a HERD server.
type ServerConfig struct {
	Workers         int
	BlockSize       int // ≤ 4 KB: responses must fit the UD MTU
	BlocksPerClient int
	MaxClients      int
	PollTimeout     sim.Duration
	ParseCost       sim.Duration
	// ClientOverhead is extra per-operation client CPU (UD recv
	// management, address handles, CQ doorbells) charged by Conn methods.
	ClientOverhead sim.Duration
}

// DefaultServerConfig mirrors the paper's setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Workers:         10,
		BlockSize:       4096,
		BlocksPerClient: 16,
		MaxClients:      512,
		PollTimeout:     20 * sim.Microsecond,
		ParseCost:       60,
		ClientOverhead:  350,
	}
}

type clientState struct {
	id     uint16
	zone   int
	ucQP   *nic.QP // server-side endpoint of the client's UC connection
	dstNIC int     // client UD QP location
	dstQPN uint32
}

type worker struct {
	s          *Server
	idx        int
	sig        *sim.Signal
	udQP       *nic.QP
	udCQ       *nic.CQ
	scratch    *memory.Region
	scratchIdx int
	buf        []byte
	Served     uint64
}

const scratchRing = 64

// Server is a HERD RPC server.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host

	pool     *rpcwire.Pool
	handlers [256]rpccore.Handler
	clients  []*clientState
	workers  []*worker
	started  bool
}

// NewServer builds the statically mapped pool and the per-worker UD QPs.
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	poolReg := h.Mem.Register(cfg.BlockSize*cfg.BlocksPerClient*cfg.MaxClients,
		memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	s := &Server{
		Cfg:  cfg,
		Host: h,
		pool: rpcwire.NewPool(poolReg, cfg.BlockSize, cfg.BlocksPerClient, cfg.MaxClients),
	}
	var tel telemetry.Scope
	if reg := h.Tel.Registry(); reg != nil {
		tel = reg.UniqueScope("herdrpc")
	}
	for i := 0; i < cfg.Workers; i++ {
		cq := h.NIC.CreateCQ()
		w := &worker{
			s:       s,
			idx:     i,
			sig:     sim.NewSignal(h.Env),
			udCQ:    cq,
			udQP:    h.NIC.CreateQP(nic.UD, cq, cq),
			scratch: h.Mem.Register(cfg.BlockSize*scratchRing, memory.PageSize2M, memory.LocalWrite),
			buf:     make([]byte, cfg.BlockSize),
		}
		h.NIC.WatchRegion(poolReg.RKey, w.sig)
		tel.Scope(fmt.Sprintf("server.w%d", i)).CounterVar("served", &w.Served)
		s.workers = append(s.workers, w)
	}
	return s
}

// Register installs a handler.
func (s *Server) Register(id uint8, fn rpccore.Handler) { s.handlers[id] = fn }

// Start launches the worker threads.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	for i, w := range s.workers {
		w := w
		s.Host.Spawn(fmt.Sprintf("herd-w%d", i), w.run)
	}
}

func (w *worker) run(t *host.Thread) {
	s := w.s
	for {
		served := 0
		// Block-major scan: responses to different clients interleave.
		for b := 0; b < s.Cfg.BlocksPerClient; b++ {
			for z := w.idx; z < s.Cfg.MaxClients; z += s.Cfg.Workers {
				if z >= len(s.clients) || s.clients[z] == nil {
					continue
				}
				cs := s.clients[z]
				t.ReadMem(s.pool.ValidAddr(z, b), 1)
				block := s.pool.Block(z, b)
				if !rpcwire.Valid(block) {
					continue
				}
				payload, _, err := rpcwire.Decode(block)
				if err != nil {
					rpcwire.Clear(block)
					continue
				}
				t.ReadMem(s.pool.BlockAddr(z, b)+uint64(s.Cfg.BlockSize-rpcwire.TrailerSize-len(payload)),
					len(payload)+rpcwire.TrailerSize)
				t.Work(s.Cfg.ParseCost)
				w.serve(t, cs, b, payload)
				rpcwire.Clear(block)
				t.WriteMem(s.pool.ValidAddr(z, b), 1)
				served++
				w.Served++
			}
		}
		if served == 0 {
			w.sig.WaitTimeout(t.P, s.Cfg.PollTimeout)
		}
	}
}

// serve executes the handler and UD-sends the response. The response
// header's ClientID field carries the request slot so the client can free
// its window entry.
func (w *worker) serve(t *host.Thread, cs *clientState, slot int, req []byte) {
	s := w.s
	hdr, body, err := rpcwire.ParseHeader(req)
	var flags byte
	n := rpcwire.PutHeader(w.buf, rpcwire.Header{ReqID: hdr.ReqID, Handler: hdr.Handler, ClientID: uint16(slot)})
	respLen := n
	if err == nil && s.handlers[hdr.Handler] != nil {
		respLen = n + s.handlers[hdr.Handler](t, cs.id, body, w.buf[n:])
	} else {
		flags = rpcwire.FlagError
	}
	blockOff := w.scratchIdx * s.Cfg.BlockSize
	w.scratchIdx = (w.scratchIdx + 1) % scratchRing
	copy(w.scratch.Bytes()[blockOff:], w.buf[:respLen])
	t.WriteMem(w.scratch.Base+uint64(blockOff), respLen)
	wr := nic.SendWR{
		Op:     nic.OpSend,
		LKey:   w.scratch.LKey,
		LAddr:  w.scratch.Base + uint64(blockOff),
		Len:    respLen,
		DstNIC: cs.dstNIC,
		DstQPN: cs.dstQPN,
	}
	if flags&rpcwire.FlagError != 0 {
		wr.Imm = 1 // error indicator travels as the send immediate
	}
	if respLen <= s.Host.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	t.PostSend(w.udQP, wr)
}

// Served returns total requests processed.
func (s *Server) Served() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.Served
	}
	return n
}

// Conn is a HERD client endpoint: a UC QP for requests plus a UD QP for
// responses.
type Conn struct {
	id    uint16
	h     *host.Host
	s     *Server
	ucQP  *nic.QP
	udQP  *nic.QP
	udCQ  *nic.CQ
	stage *memory.Region
	recv  *memory.Region
	slots []slot
	nfree int
	zone  int
	// recvSlots rotates receive buffers.
	recvSlot int
}

type slot struct {
	busy  bool
	reqID uint64
}

// Connect admits a client.
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	if len(s.clients) >= s.Cfg.MaxClients {
		panic("herdrpc: server full")
	}
	id := uint16(len(s.clients))
	// UC pair for the request path.
	scq := s.Host.NIC.CreateCQ()
	ccq := ch.NIC.CreateCQ()
	sqp := s.Host.NIC.CreateQP(nic.UC, scq, scq)
	cqp := ch.NIC.CreateQP(nic.UC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	// Client UD endpoint for the response path.
	udCQ := ch.NIC.CreateCQ()
	udQP := ch.NIC.CreateQP(nic.UD, udCQ, udCQ)
	udCQ.Sig = sig

	stage := ch.Mem.Register(s.Cfg.BlockSize*s.Cfg.BlocksPerClient, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead)
	recvReg := ch.Mem.Register(s.Cfg.BlockSize*(s.Cfg.BlocksPerClient*2), memory.PageSize2M,
		memory.LocalWrite)
	cs := &clientState{id: id, zone: int(id), ucQP: sqp, dstNIC: ch.NIC.ID(), dstQPN: udQP.QPN}
	s.clients = append(s.clients, cs)
	conn := &Conn{
		id:    id,
		h:     ch,
		s:     s,
		ucQP:  cqp,
		udQP:  udQP,
		udCQ:  udCQ,
		stage: stage,
		recv:  recvReg,
		slots: make([]slot, s.Cfg.BlocksPerClient),
		nfree: s.Cfg.BlocksPerClient,
		zone:  int(id),
	}
	// Pre-post the receive window.
	nRecv := s.Cfg.BlocksPerClient * 2
	for i := 0; i < nRecv; i++ {
		udQP.PostRecv(nic.RecvWR{
			WRID: uint64(i),
			LKey: recvReg.LKey, LAddr: recvReg.Base + uint64(i*s.Cfg.BlockSize), Len: s.Cfg.BlockSize,
		})
	}
	return conn
}

// SlotCount returns the request window size.
func (c *Conn) SlotCount() int { return len(c.slots) }

// Outstanding returns in-flight requests.
func (c *Conn) Outstanding() int { return len(c.slots) - c.nfree }

// TrySend UC-writes a request into the client's static server zone.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	if c.nfree == 0 {
		return false
	}
	b := -1
	for i := range c.slots {
		if !c.slots[i].busy {
			b = i
			break
		}
	}
	msg := make([]byte, rpcwire.HeaderSize+len(payload))
	rpcwire.PutHeader(msg, rpcwire.Header{ReqID: reqID, Handler: handler, ClientID: c.id})
	copy(msg[rpcwire.HeaderSize:], payload)
	blockOff := b * c.s.Cfg.BlockSize
	block := c.stage.Bytes()[blockOff : blockOff+c.s.Cfg.BlockSize]
	if err := rpcwire.Encode(block, msg, 0); err != nil {
		return false
	}
	off, span := rpcwire.EncodedSpan(c.s.Cfg.BlockSize, len(msg))
	t.WriteMem(c.stage.Base+uint64(blockOff+off), span)
	wr := nic.SendWR{
		Op:    nic.OpWrite,
		LKey:  c.stage.LKey,
		LAddr: c.stage.Base + uint64(blockOff+off),
		Len:   span,
		RKey:  c.s.pool.RKey(),
		RAddr: c.s.pool.BlockAddr(c.zone, b) + uint64(off),
	}
	if span <= c.h.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	if err := t.PostSend(c.ucQP, wr); err != nil {
		return false
	}
	c.slots[b] = slot{busy: true, reqID: reqID}
	c.nfree--
	return true
}

// Poll drains the UD response CQ, reposting consumed receives.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	t.Work(c.s.Cfg.ClientOverhead)
	cqes := t.PollCQ(c.udCQ, 16)
	got := 0
	for _, e := range cqes {
		if e.Status != nic.CQOK {
			continue
		}
		// Locate the receive buffer and parse the response.
		addr := c.recv.Base + e.WRID*uint64(c.s.Cfg.BlockSize)
		t.ReadMem(addr, e.ByteLen)
		buf := c.recv.Bytes()[e.WRID*uint64(c.s.Cfg.BlockSize):]
		hdr, body, err := rpcwire.ParseHeader(buf[:e.ByteLen])
		// Repost the consumed receive.
		t.PostRecv(c.udQP, nic.RecvWR{WRID: e.WRID, LKey: c.recv.LKey, LAddr: addr, Len: c.s.Cfg.BlockSize})
		if err != nil {
			continue
		}
		b := int(hdr.ClientID)
		if b < 0 || b >= len(c.slots) || !c.slots[b].busy || c.slots[b].reqID != hdr.ReqID {
			continue // stale or duplicate
		}
		c.slots[b] = slot{}
		c.nfree++
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: e.ImmValid && e.Imm == 1})
		got++
	}
	return got
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
