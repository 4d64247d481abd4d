// Package fasstrpc implements the FaSST RPC baseline (Kalia et al.,
// OSDI'16; Table 2 of the paper): both requests and responses travel as UD
// sends. The server needs only one UD QP per worker thread — no per-client
// connections, no per-client buffers (incoming requests land wherever the
// posted recv ring points) — which is why FaSST's throughput is flat in
// the number of clients (Figure 8). The price: no one-sided verbs, a 4 KB
// MTU, and clients that must pre-post receives and poll completion queues,
// making client CPU the bottleneck (§3.6.2).
package fasstrpc

import (
	"scalerpc/internal/baseline"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// ServerConfig sizes a FaSST server.
type ServerConfig struct {
	Workers     int
	BlockSize   int // ≤ UD MTU
	RecvDepth   int // posted receives per worker QP
	PollTimeout sim.Duration
	ParseCost   sim.Duration
	// ClientOverhead is extra per-operation client CPU (recv reposting,
	// CQ polling, doorbells — the UD client tax).
	ClientOverhead sim.Duration
	// ClientWindow is the per-client request window.
	ClientWindow int
}

// DefaultServerConfig mirrors the paper's setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Workers:        10,
		BlockSize:      4096,
		RecvDepth:      512,
		PollTimeout:    20 * sim.Microsecond,
		ParseCost:      60,
		ClientOverhead: baseline.UDClientOverhead,
		ClientWindow:   16,
	}
}

// recvRing is one worker's ring of posted receive blocks: FaSST's request
// half on the server side.
type recvRing struct {
	reg      *memory.Region
	toRepost []nic.RecvWR
}

// Server is a FaSST RPC server: one UD QP per worker carries requests in
// and responses out.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host
	*baseline.Shell

	rings   []*recvRing // by worker
	nextCli uint16
}

// NewServer builds per-worker UD QPs and posts each one's recv ring with
// one doorbell.
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	s := &Server{Cfg: cfg, Host: h, Shell: baseline.NewShell(h, "fasstrpc", cfg.BlockSize, cfg.ClientWindow)}
	for i := 0; i < cfg.Workers; i++ {
		cq := h.NIC.CreateCQ()
		qp := h.NIC.CreateQP(nic.UD, cq, cq)
		ring := &recvRing{reg: h.Mem.Register(cfg.BlockSize*cfg.RecvDepth, memory.PageSize2M, memory.LocalWrite)}
		s.rings = append(s.rings, ring)
		w := s.AddWorker()
		w.CQ, w.QP = cq, qp
		wrs := make([]nic.RecvWR, cfg.RecvDepth)
		for r := range wrs {
			wrs[r] = s.recvWR(ring, uint64(r))
		}
		qp.PostRecvBatch(wrs)
	}
	return s
}

// Start launches the worker threads.
func (s *Server) Start() { s.Spawn("fasst", s.run) }

func (s *Server) recvWR(ring *recvRing, r uint64) nic.RecvWR {
	return nic.RecvWR{WRID: r, LKey: ring.reg.LKey, LAddr: ring.reg.Base + r*uint64(s.Cfg.BlockSize), Len: s.Cfg.BlockSize}
}

func (s *Server) run(t *host.Thread, w *baseline.Worker) {
	ring := s.rings[w.Idx]
	for {
		cqes := t.PollCQ(w.CQ, 16)
		if len(cqes) == 0 {
			// Batch-repost consumed receives before sleeping.
			s.repost(t, w, ring)
			w.CQ.Sig.WaitTimeout(t.P, s.Cfg.PollTimeout)
			continue
		}
		for _, e := range cqes {
			if e.Status != nic.CQOK {
				continue
			}
			wr := s.recvWR(ring, e.WRID)
			t.ReadMem(wr.LAddr, e.ByteLen)
			off := e.WRID * uint64(s.Cfg.BlockSize)
			req := ring.reg.Bytes()[off : off+uint64(e.ByteLen)]
			t.Work(s.Cfg.ParseCost)
			// No per-client state on the server: the request names its
			// client, and the response returns to the QP it came from. (A
			// frame too short to name one parses as client 0 and Dispatch
			// answers it with an error.)
			hdr, _, _ := rpcwire.ParseHeader(req)
			if w.Dispatch(t, hdr.ClientID, req) {
				w.SendResponse(t, w.QP, e.SrcNIC, e.SrcQPN)
			}
			ring.toRepost = append(ring.toRepost, wr)
			w.Served++
		}
		if len(ring.toRepost) >= 16 {
			s.repost(t, w, ring)
		}
	}
}

func (s *Server) repost(t *host.Thread, w *baseline.Worker, ring *recvRing) {
	if len(ring.toRepost) == 0 {
		return
	}
	t.PostRecvBatch(w.QP, ring.toRepost)
	ring.toRepost = ring.toRepost[:0]
}

// Conn is a FaSST client endpoint: one UD QP, a recv ring, a send window.
type Conn struct {
	baseline.Window
	resp  baseline.UDRecv
	id    uint16
	h     *host.Host
	s     *Server
	stage *memory.Region
	// Target server worker QP (clients are spread over workers).
	dstNIC int
	dstQPN uint32
}

// Connect admits a client (no connection state on the server: it only
// assigns an id and a worker QP to address).
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	window := s.Cfg.ClientWindow
	c := &Conn{
		Window: baseline.NewWindow(window),
		id:     s.nextCli,
		h:      ch,
		s:      s,
		dstNIC: s.Host.NIC.ID(),
		dstQPN: s.Workers[int(s.nextCli)%len(s.Workers)].QP.QPN,
	}
	s.nextCli++
	c.resp = baseline.NewUDRecv(ch, sig, s.Cfg.ClientOverhead)
	c.stage = ch.Mem.Register(s.Cfg.BlockSize*window, memory.PageSize2M, memory.LocalWrite)
	c.resp.PostRing(ch, s.Cfg.BlockSize, window*2)
	return c
}

// TrySend UD-sends one request to the client's assigned server worker.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	b := c.FreeSlot()
	msgLen := rpcwire.HeaderSize + len(payload)
	if b < 0 || msgLen > c.s.Cfg.BlockSize {
		return false
	}
	blockOff := b * c.s.Cfg.BlockSize
	buf := c.stage.Bytes()[blockOff:]
	rpcwire.PutHeader(buf, rpcwire.Header{ReqID: reqID, Handler: handler, ClientID: c.id})
	copy(buf[rpcwire.HeaderSize:], payload)
	t.WriteMem(c.stage.Base+uint64(blockOff), msgLen)
	t.Work(c.s.Cfg.ClientOverhead)
	err := t.PostSend(c.resp.QP, nic.SendWR{
		Op:     nic.OpSend,
		LKey:   c.stage.LKey,
		LAddr:  c.stage.Base + uint64(blockOff),
		Len:    msgLen,
		Inline: msgLen <= c.h.NIC.Cfg.MaxInline,
		DstNIC: c.dstNIC,
		DstQPN: c.dstQPN,
	})
	if err != nil {
		return false
	}
	c.Take(b, reqID, msgLen)
	return true
}

// Poll drains the response CQ, reposting receives.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	return c.resp.Poll(t, &c.Window, fn)
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
