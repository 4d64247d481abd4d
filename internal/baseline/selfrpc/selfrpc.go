// Package selfrpc implements Octopus's self-identified RPC (Lu et al.,
// USENIX ATC'17), the paper's Figure 13 comparison point: clients post
// requests with RDMA WRITE_WITH_IMM into their static server zone, and the
// immediate value (client zone ⊕ block) lets server threads locate new
// messages straight from the completion queue instead of scanning the
// whole message pool. Responses return as plain RC writes.
//
// Self-identification removes the poll-scan cost, but the design keeps a
// per-client connection for responses (NIC QPC thrash at scale) and a
// statically mapped pool (LLC thrash at scale) — which is why ScaleRPC
// overtakes it on read-mostly metadata ops in Figure 13.
package selfrpc

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

// ServerConfig sizes a selfRPC server.
type ServerConfig struct {
	Workers         int
	BlockSize       int
	BlocksPerClient int
	MaxClients      int
	PollTimeout     sim.Duration
	ParseCost       sim.Duration
}

// DefaultServerConfig mirrors the paper's DFS setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Workers:         10,
		BlockSize:       4096,
		BlocksPerClient: 16,
		MaxClients:      512,
		PollTimeout:     20 * sim.Microsecond,
		ParseCost:       60,
	}
}

const scratchRing = 64

type clientState struct {
	id       uint16
	qp       *nic.QP
	respAddr uint64
	respRKey uint32
}

type worker struct {
	s          *Server
	idx        int
	cq         *nic.CQ
	scratch    *memory.Region
	scratchIdx int
	buf        []byte
	Served     uint64
}

// Server is a selfRPC server.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host

	pool     *rpcwire.Pool
	handlers [256]rpccore.Handler
	clients  []*clientState
	workers  []*worker
	started  bool
}

// NewServer builds the pool and per-worker completion queues.
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
		tel = reg.UniqueScope("selfrpc")
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			s:       s,
			idx:     i,
			cq:      h.NIC.CreateCQ(),
			scratch: h.Mem.Register(cfg.BlockSize*scratchRing, memory.PageSize2M, memory.LocalWrite),
			buf:     make([]byte, cfg.BlockSize),
		}
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
		s.Host.Spawn(fmt.Sprintf("selfrpc-w%d", i), w.run)
	}
}

func (w *worker) run(t *host.Thread) {
	s := w.s
	for {
		cqes := t.PollCQ(w.cq, 16)
		if len(cqes) == 0 {
			w.cq.Sig.WaitTimeout(t.P, s.Cfg.PollTimeout)
			continue
		}
		for _, e := range cqes {
			if e.Status != nic.CQOK || !e.ImmValid {
				continue
			}
			// Self-identification: the immediate names the exact block.
			z := int(e.Imm >> 8)
			b := int(e.Imm & 0xFF)
			if z >= len(s.clients) || s.clients[z] == nil || b >= s.Cfg.BlocksPerClient {
				continue
			}
			cs := s.clients[z]
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
			// Replenish the consumed recv WQE.
			t.PostRecv(cs.qp, nic.RecvWR{})
			w.Served++
		}
	}
}

func (w *worker) serve(t *host.Thread, cs *clientState, slot int, req []byte) {
	s := w.s
	hdr, body, err := rpcwire.ParseHeader(req)
	var flags byte
	n := rpcwire.PutHeader(w.buf, rpcwire.Header{ReqID: hdr.ReqID, Handler: hdr.Handler, ClientID: uint16(slot)})
	respLen := n
	if err == nil && s.handlers[hdr.Handler] != nil {
		respLen = n + s.handlers[hdr.Handler](t, cs.id, body, w.buf[n:len(w.buf)-rpcwire.TrailerSize])
	} else {
		flags = rpcwire.FlagError
	}
	blockOff := w.scratchIdx * s.Cfg.BlockSize
	w.scratchIdx = (w.scratchIdx + 1) % scratchRing
	block := w.scratch.Bytes()[blockOff : blockOff+s.Cfg.BlockSize]
	if err := rpcwire.Encode(block, w.buf[:respLen], flags); err != nil {
		return
	}
	off, span := rpcwire.EncodedSpan(s.Cfg.BlockSize, respLen)
	t.WriteMem(w.scratch.Base+uint64(blockOff+off), span)
	wr := nic.SendWR{
		Op:    nic.OpWrite,
		LKey:  w.scratch.LKey,
		LAddr: w.scratch.Base + uint64(blockOff+off),
		Len:   span,
		RKey:  cs.respRKey,
		RAddr: cs.respAddr + uint64(slot*s.Cfg.BlockSize+off),
	}
	if span <= s.Host.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	t.PostSend(cs.qp, wr)
}

// Served returns total requests processed.
func (s *Server) Served() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.Served
	}
	return n
}

// Conn is a selfRPC client endpoint.
type Conn struct {
	id    uint16
	h     *host.Host
	s     *Server
	qp    *nic.QP
	zone  int
	stage *memory.Region
	resp  *rpcwire.Pool
	slots []slot
	nfree int
}

type slot struct {
	busy  bool
	reqID uint64
}

// Connect admits a client: an RC QP pair whose server side delivers
// WRITE_IMM completions to one worker's CQ (round-robin assignment).
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	if len(s.clients) >= s.Cfg.MaxClients {
		panic("selfrpc: server full")
	}
	id := uint16(len(s.clients))
	w := s.workers[int(id)%len(s.workers)]
	ccq := ch.NIC.CreateCQ()
	sqp := s.Host.NIC.CreateQP(nic.RC, w.cq, w.cq)
	cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	// Pre-post recvs to absorb WRITE_IMM notifications.
	for i := 0; i < s.Cfg.BlocksPerClient*2; i++ {
		sqp.PostRecv(nic.RecvWR{})
	}
	stage := ch.Mem.Register(s.Cfg.BlockSize*s.Cfg.BlocksPerClient, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead)
	respReg := ch.Mem.Register(s.Cfg.BlockSize*(s.Cfg.BlocksPerClient+1), memory.PageSize2M,
		memory.LocalWrite|memory.RemoteWrite)
	s.clients = append(s.clients, &clientState{
		id: id, qp: sqp, respAddr: respReg.Base, respRKey: respReg.RKey,
	})
	conn := &Conn{
		id:    id,
		h:     ch,
		s:     s,
		qp:    cqp,
		zone:  int(id),
		stage: stage,
		resp:  rpcwire.NewPool(respReg, s.Cfg.BlockSize, s.Cfg.BlocksPerClient+1, 1),
		slots: make([]slot, s.Cfg.BlocksPerClient),
		nfree: s.Cfg.BlocksPerClient,
	}
	ch.NIC.WatchRegion(respReg.RKey, sig)
	return conn
}

// SlotCount returns the request window size.
func (c *Conn) SlotCount() int { return len(c.slots) }

// Outstanding returns in-flight requests.
func (c *Conn) Outstanding() int { return len(c.slots) - c.nfree }

// TrySend posts one WRITE_IMM request.
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
		Op:    nic.OpWriteImm,
		Imm:   uint32(c.zone)<<8 | uint32(b),
		LKey:  c.stage.LKey,
		LAddr: c.stage.Base + uint64(blockOff+off),
		Len:   span,
		RKey:  c.s.pool.RKey(),
		RAddr: c.s.pool.BlockAddr(c.zone, b) + uint64(off),
	}
	if span <= c.h.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	if err := t.PostSend(c.qp, wr); err != nil {
		return false
	}
	c.slots[b] = slot{busy: true, reqID: reqID}
	c.nfree--
	return true
}

// Poll scans in-flight response slots (clients still poll memory; only the
// server side is self-identified).
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	got := 0
	for b := range c.slots {
		if !c.slots[b].busy {
			continue
		}
		t.ReadMem(c.resp.ValidAddr(0, b), 1)
		block := c.resp.Block(0, b)
		if !rpcwire.Valid(block) {
			continue
		}
		payload, flags, err := rpcwire.Decode(block)
		if err != nil {
			rpcwire.Clear(block)
			continue
		}
		t.ReadMem(c.resp.BlockAddr(0, b), len(payload)+rpcwire.TrailerSize)
		hdr, body, herr := rpcwire.ParseHeader(payload)
		rpcwire.Clear(block)
		t.WriteMem(c.resp.ValidAddr(0, b), 1)
		if herr != nil || hdr.ReqID != c.slots[b].reqID {
			continue
		}
		c.slots[b] = slot{}
		c.nfree++
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: flags&rpcwire.FlagError != 0})
		got++
	}
	return got
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
