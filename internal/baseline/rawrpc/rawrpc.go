// Package rawrpc implements the paper's RawWrite baseline (Table 2): a
// FaRM-style RPC over RC one-sided writes with every ScaleRPC optimization
// disabled. Each client gets its own statically mapped message zone in one
// big server pool, and its own RC connection; the server polls all zones
// and answers with RC writes into the client's response zone.
//
// This is exactly the design whose scalability collapses in Figures 1(b),
// 8 and 10: the pool footprint grows linearly with clients (CPU-cache
// thrash on inbound) and response writes fan out over every client QP
// (NIC-cache thrash on outbound).
package rawrpc

import (
	"scalerpc/internal/baseline"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// ServerConfig sizes a RawWrite server.
type ServerConfig struct {
	Workers         int
	BlockSize       int
	BlocksPerClient int
	MaxClients      int
	// PollTimeout bounds worker sleep when idle.
	PollTimeout sim.Duration
	// ParseCost is CPU time to parse/dispatch one request.
	ParseCost sim.Duration
}

// DefaultServerConfig mirrors the paper's setup: 10 worker threads, 4 KB
// message blocks.
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

// Server is a RawWrite RPC server: requests arrive by RC WRITE into a
// statically mapped pool the workers sweep, responses leave by RC WRITE.
type Server struct {
	Cfg  ServerConfig
	Host *host.Host
	*baseline.Shell
	// Req is the request pool, one zone per client id.
	Req baseline.ReqPool

	clients []*clientState
	// roster owns the identities of control-plane clients and the tenant
	// gate that charges every zone to a tenant (membership.go).
	roster *ctrlplane.Roster
}

// clientState is the server-side view of one connected client; its zone
// in the pool is its id. A parked client's zone stays statically mapped
// (and swept) until the roster drops the identity.
type clientState struct {
	ctrlplane.Member
	resp baseline.RespZone
}

// NewServer allocates the pool and worker bookkeeping. The pool is fully
// formatted up front from MaxClients (static mapping, which is precisely
// the design the paper criticizes).
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	s := &Server{Cfg: cfg, Host: h, Shell: baseline.NewShell(h, "rawrpc", cfg.BlockSize, cfg.BlocksPerClient)}
	s.Req = s.NewReqPool(cfg.BlocksPerClient, cfg.MaxClients, cfg.ParseCost)
	s.roster = ctrlplane.NewRoster("rawrpc", cfg.MaxClients, placement{s})
	for i := 0; i < cfg.Workers; i++ {
		h.NIC.WatchRegion(s.Req.RKey(), s.AddWorker().Sig)
	}
	return s
}

// Start launches worker threads.
func (s *Server) Start() { s.Spawn("rawrpc", s.run) }

func (s *Server) run(t *host.Thread, w *baseline.Worker) {
	for {
		if s.sweep(t, w) == 0 {
			w.Sig.WaitTimeout(t.P, s.Cfg.PollTimeout)
		}
	}
}

// sweep scans this worker's zones once, serving every valid request.
func (s *Server) sweep(t *host.Thread, w *baseline.Worker) int {
	// Zones are striped across workers so server CPU engages evenly even
	// when few clients are connected, and the scan is block-major (all
	// clients' slot 0, then slot 1, ...) so responses to different clients
	// interleave — the order a fair scanner produces, and the reason
	// RawWrite's response path cannot hide its QP-cache misses behind
	// per-client response bursts.
	served := 0
	for b := 0; b < s.Cfg.BlocksPerClient; b++ {
		for z := w.Idx; z < len(s.clients); z += s.Cfg.Workers {
			cs := s.clients[z]
			if cs == nil {
				continue
			}
			req, ok := s.Req.Sweep(t, w, z, b)
			if !ok {
				continue
			}
			if w.Dispatch(t, cs.ID, req) {
				w.WriteResponse(t, cs.QP, cs.resp, b)
			}
			s.Req.Release(t, z, b)
			served++
			w.Served++
		}
	}
	return served
}

// Conn is a RawWrite client endpoint.
type Conn struct {
	baseline.Window
	req  baseline.ReqWriter
	resp baseline.RespPool
	s    *Server

	// membership is zero for connections admitted through the legacy
	// Connect backdoor; joinTenant is stamped into every join payload
	// (membership.go).
	membership
	joinTenant uint16
}

// newConn registers the client's staging and response blocks; the caller
// binds the QP and the id.
func (s *Server) newConn(ch *host.Host, sig *sim.Signal) *Conn {
	return &Conn{
		Window: baseline.NewWindow(s.Cfg.BlocksPerClient),
		req:    baseline.NewReqWriter(ch, s.Req.Pool, nic.OpWrite),
		resp:   baseline.NewRespPool(ch, sig, s.Cfg.BlockSize, s.Cfg.BlocksPerClient, s.Rel),
		s:      s,
	}
}

// Connect registers a new client on the server and builds its endpoint.
// sig is the client thread's activity signal (woken on response arrival).
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	if len(s.clients) >= s.Cfg.MaxClients {
		panic("rawrpc: server full")
	}
	// RC QP pair; both directions unsignaled (completion is the response).
	scq := s.Host.NIC.CreateCQ()
	ccq := ch.NIC.CreateCQ()
	sqp := s.Host.NIC.CreateQP(nic.RC, scq, scq)
	cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	c := s.newConn(ch, sig)
	c.req.QP, c.req.ID = cqp, uint16(len(s.clients))
	s.clients = append(s.clients, &clientState{
		Member: ctrlplane.Member{ID: c.req.ID, QP: sqp, Peer: -1}, resp: c.resp.Zone()})
	return c
}

// TrySend posts one request into a free slot of the client's server zone.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	return !c.Left() && c.req.Send(t, &c.Window, handler, payload, reqID)
}

// Poll scans this connection's in-flight response slots.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	if c.Left() {
		return 0
	}
	return c.resp.Poll(t, &c.Window, fn)
}

// Resend re-posts the in-flight request identified by reqID from its
// staging block into the same server-pool slot (the rpccore.Resender hook
// behind Caller retries and hedges). Server-side dedup absorbs duplicate
// deliveries.
func (c *Conn) Resend(t *host.Thread, reqID uint64) bool {
	if c.Left() || c.req.QP.Err() != nil {
		return false
	}
	b := c.Find(reqID)
	return b >= 0 && c.req.Post(t, b, c.Slots[b].MsgLen)
}

var _ rpccore.Server = (*Server)(nil)
var _ rpccore.Conn = (*Conn)(nil)
var _ rpccore.Resender = (*Conn)(nil)
