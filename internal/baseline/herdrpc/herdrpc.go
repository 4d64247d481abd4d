// Package herdrpc implements the HERD RPC baseline (Kalia et al.,
// SIGCOMM'14; Table 2 of the paper): clients post requests with UC writes
// into a statically mapped server pool, and the server replies with UD
// sends. One UD QP per server worker keeps the server's outbound path off
// the QP-context cache treadmill, but the static request pool still grows
// with the client count — the reason HERD degrades (more gently than
// RawWrite) at scale in Figure 8.
package herdrpc

import (
	"scalerpc/internal/baseline"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// Server sizing: the paper's setup, which no deployment varies.
const (
	workers         = 10
	blocksPerClient = 16
	maxClients      = 512
)

// ServerConfig holds a HERD server's modelled costs.
type ServerConfig struct {
	ParseCost sim.Duration
	// ClientOverhead is extra per-operation client CPU (UD recv
	// management, address handles, CQ doorbells) charged by Conn methods.
	ClientOverhead sim.Duration
}

// DefaultServerConfig mirrors the paper's setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ParseCost:      60,
		ClientOverhead: baseline.UDClientOverhead,
	}
}

// clientState is where a client's responses go: its UD QP. Its zone in the
// pool is its id.
type clientState struct {
	id     uint16
	dstNIC int
	dstQPN uint32
}

// Server is a HERD RPC server: requests arrive by UC WRITE into a
// statically mapped pool the workers sweep, responses leave by UD SEND
// from one UD QP per worker.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host
	*baseline.Shell
	// Req is the request pool, one zone per client id.
	Req rpccore.ReqPool

	clients []*clientState
}

// NewServer builds the statically mapped pool and the per-worker UD QPs.
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	s := &Server{Cfg: cfg, Host: h, Shell: baseline.NewShell(h, "herdrpc", blocksPerClient)}
	s.Req = rpccore.NewReqPool(h, blocksPerClient, maxClients, cfg.ParseCost, s.Rel)
	for i := 0; i < workers; i++ {
		cq := h.NIC.CreateCQ()
		qp := h.NIC.CreateQP(nic.UD, cq, cq)
		w := s.AddWorker()
		w.CQ, w.QP = cq, qp
		// Every write wakes every worker; striping (nic.WatchZones) waits on ROADMAP 21.
		h.NIC.WatchRegion(s.Req.RKey(), w.Sig)
	}
	return s
}

// Start launches the worker threads.
func (s *Server) Start() { s.Spawn("herd", s.run) }

func (s *Server) run(t *host.Thread, w *baseline.Worker) {
	for {
		if s.sweep(t, w) == 0 {
			t.WaitSignal(w.Sig, baseline.PollTimeout)
		}
	}
}

// sweep scans this worker's zones once, serving every valid request.
func (s *Server) sweep(t *host.Thread, w *baseline.Worker) int {
	// Block-major scan: responses to different clients interleave. The pass
	// is one deferred-charge region, settled blocking before run parks.
	t.BeginWork()
	defer t.EndWork()
	served := 0
	for b := 0; b < blocksPerClient; b++ {
		for z := w.Idx; z < len(s.clients); z += workers {
			req, ok := s.Req.Sweep(t, &w.Req, z, b)
			if !ok {
				continue
			}
			cs := s.clients[z]
			if w.Dispatch(t, cs.id, req) {
				w.SendResponse(t, w.QP, cs.dstNIC, cs.dstQPN)
			}
			s.Req.Release(t, z, b)
			served++
			w.Served++
		}
	}
	return served
}

// Conn is a HERD client endpoint: a UC QP for requests plus a UD QP for
// responses.
type Conn struct {
	rpccore.Window
	req rpccore.ReqWriter
	// pool is the server's request pool; the client's zone in it is its id.
	pool *rpcwire.Pool
	resp baseline.UDRecv
}

// Connect admits a client.
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	if len(s.clients) >= maxClients {
		panic("herdrpc: server full")
	}
	// UC pair for the request path.
	scq := s.Host.NIC.CreateCQ()
	ccq := ch.NIC.CreateCQ()
	sqp := s.Host.NIC.CreateQP(nic.UC, scq, scq)
	cqp := ch.NIC.CreateQP(nic.UC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	// Client UD endpoint for the response path, then the staging blocks,
	// then the receive ring.
	c := &Conn{Window: rpccore.NewWindow(blocksPerClient), pool: s.Req.Pool}
	c.resp = baseline.NewUDRecv(ch, sig, s.Cfg.ClientOverhead)
	c.req = rpccore.NewReqWriter(ch, blocksPerClient, nic.OpWrite)
	c.req.QP, c.req.ID = cqp, uint16(len(s.clients))
	c.resp.PostRing(ch, blocksPerClient*2)
	s.clients = append(s.clients, &clientState{id: c.req.ID, dstNIC: ch.NIC.ID(), dstQPN: c.resp.QP.QPN})
	return c
}

// TrySend UC-writes a request into the client's static server zone.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	return c.req.Send(t, &c.Window, c.pool, int(c.req.ID), handler, payload, reqID)
}

// Poll drains the UD response CQ, reposting consumed receives.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	return c.resp.Poll(t, &c.Window, fn)
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
