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
	"scalerpc/internal/baseline"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// Server sizing: the paper's DFS setup, which no deployment varies.
const (
	workers         = 10
	blocksPerClient = 16
	maxClients      = 512
)

// ServerConfig holds a selfRPC server's modelled cost.
type ServerConfig struct {
	ParseCost sim.Duration
}

// DefaultServerConfig mirrors the paper's DFS setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{ParseCost: 60}
}

// clientState is the server-side view of one client; its zone in the pool
// is its id.
type clientState struct {
	id   uint16
	qp   *nic.QP
	resp rpccore.RespZone
}

// Server is a selfRPC server: requests arrive by RC WRITE_WITH_IMM into a
// statically mapped pool and are found from each worker's completion
// queue, responses leave by RC WRITE.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host
	*baseline.Shell
	// Req is the request pool, one zone per client id.
	Req rpccore.ReqPool

	clients []*clientState
}

// NewServer builds the pool and per-worker completion queues.
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	s := &Server{Cfg: cfg, Host: h, Shell: baseline.NewShell(h, "selfrpc", blocksPerClient)}
	s.Req = rpccore.NewReqPool(h, blocksPerClient, maxClients, cfg.ParseCost, s.Rel)
	for i := 0; i < workers; i++ {
		cq := h.NIC.CreateCQ()
		s.AddWorker().CQ = cq
	}
	return s
}

// Start launches the worker threads.
func (s *Server) Start() { s.Spawn("selfrpc", s.run) }

func (s *Server) run(t *host.Thread, w *baseline.Worker) {
	for {
		cqes := t.PollCQ(w.CQ, 16)
		if len(cqes) == 0 {
			t.WaitSignal(w.CQ.Sig, baseline.PollTimeout)
			continue
		}
		for _, e := range cqes {
			if e.Status != nic.CQOK || !e.ImmValid {
				continue
			}
			// Self-identification: the immediate names the exact block.
			z, b := rpccore.ImmBlock(e.Imm)
			if z >= len(s.clients) || b >= blocksPerClient {
				continue
			}
			cs := s.clients[z]
			if req, ok := s.Req.Take(t, &w.Req, z, b); ok {
				if w.Dispatch(t, cs.id, req) {
					w.WriteResponse(t, cs.qp, cs.resp, b)
				}
				s.Req.Release(t, z, b)
				w.Served++
			}
			// Replenish the consumed recv WQE.
			t.PostRecv(cs.qp, nic.RecvWR{})
		}
	}
}

// Conn is a selfRPC client endpoint.
type Conn struct {
	rpccore.Window
	req rpccore.ReqWriter
	// pool is the server's request pool; the client's zone in it is its id.
	pool *rpcwire.Pool
	resp rpccore.RespPool
}

// Connect admits a client: an RC QP pair whose server side delivers
// WRITE_IMM completions to one worker's CQ (round-robin assignment).
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	if len(s.clients) >= maxClients {
		panic("selfrpc: server full")
	}
	id := uint16(len(s.clients))
	w := s.Workers[int(id)%len(s.Workers)]
	ccq := ch.NIC.CreateCQ()
	sqp := s.Host.NIC.CreateQP(nic.RC, w.CQ, w.CQ)
	cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	// Pre-post recvs to absorb WRITE_IMM notifications.
	for i := 0; i < blocksPerClient*2; i++ {
		sqp.PostRecv(nic.RecvWR{})
	}
	c := &Conn{Window: rpccore.NewWindow(blocksPerClient), pool: s.Req.Pool}
	c.req = rpccore.NewReqWriter(ch, blocksPerClient, nic.OpWriteImm)
	c.req.QP, c.req.ID = cqp, id
	c.resp = rpccore.NewRespPool(ch, sig, blocksPerClient, s.Rel)
	s.clients = append(s.clients, &clientState{id: id, qp: sqp, resp: c.resp.Zone()})
	return c
}

// TrySend posts one WRITE_IMM request.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	return c.req.Send(t, &c.Window, c.pool, int(c.req.ID), handler, payload, reqID)
}

// Poll scans in-flight response slots (clients still poll memory; only the
// server side is self-identified).
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	return c.resp.Poll(t, &c.Window, fn)
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
