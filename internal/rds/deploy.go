package rds

import (
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/sim"
)

// Config describes one rds deployment on a cluster.
type Config struct {
	// ServerHost is the index of the host that owns the structures.
	ServerHost int
	// Layout fixes the region geometry.
	Layout Layout
	// ServerWork is the CPU charge per RPC-handled op.
	ServerWork sim.Duration
}

// Deployment is a running rds instance: the server plus the connection
// factories for the three backends. All clients of one deployment share
// the Stats block, registered under the cluster's "rds" telemetry scope.
type Deployment struct {
	C     *cluster.Cluster
	Cfg   Config
	Srv   *Server
	Stats Stats

	clients int
}

// Deploy builds the server on cfg.ServerHost, starts its ScaleRPC side,
// and registers the subsystem's telemetry.
func Deploy(c *cluster.Cluster, cfg Config) *Deployment {
	d := &Deployment{C: c, Cfg: cfg}
	d.Srv = newServer(c.Hosts[cfg.ServerHost], cfg.Layout, cfg.ServerWork)
	d.Srv.RPC.Start()
	sc := c.Telemetry.UniqueScope("rds")
	sc.CounterVar("ops", &d.Stats.Ops)
	sc.CounterVar("onesided.ops", &d.Stats.OneSidedOps)
	sc.CounterVar("rpc.ops", &d.Stats.RPCOps)
	sc.CounterVar("cas_retries", &d.Stats.CASRetries)
	sc.CounterVar("torn_retries", &d.Stats.TornRetries)
	sc.CounterVar("adaptive.switches", &d.Stats.Switches)
	sc.CounterVar("adaptive.probes", &d.Stats.Probes)
	return d
}

// NewOneSided connects a one-sided client on host ch: a dedicated RC QP
// pair to the server (the server side stays passive — one-sided traffic
// consumes no receives and generates no responder CQEs) plus a private
// scratch region for READ landings and WRITE staging.
func (d *Deployment) NewOneSided(ch *host.Host) *OneSided {
	c := &OneSided{d: d, id: d.clients, readSpan: span(d.Srv.Lay)}
	d.clients++
	c.cq = ch.NIC.CreateCQ()
	scq := d.Srv.H.NIC.CreateCQ()
	c.qp, _ = d.C.ConnectRC(ch, d.Srv.H, c.cq, c.cq, scq, scq)
	c.scratch = ch.Mem.Register(2*c.readSpan, memory.PageSize4K, memory.LocalWrite)
	return c
}

// NewRPC connects a two-sided client on host ch through the server's
// ScaleRPC endpoint. sig is the client thread's activity signal.
func (d *Deployment) NewRPC(ch *host.Host, sig *sim.Signal) *RPCClient {
	c := &RPCClient{d: d, req: make([]byte, 8+d.Srv.Lay.ValSize)}
	d.clients++ // every client takes an index; one-sided ones salt their backoff with it
	c.conn = d.Srv.RPC.Connect(ch, sig)
	return c
}

// NewAdaptive builds the hybrid client: one endpoint of each backend plus
// the selection state.
func (d *Deployment) NewAdaptive(ch *host.Host, sig *sim.Signal) *Adaptive {
	return newAdaptive(d, d.NewOneSided(ch), d.NewRPC(ch, sig))
}

// NewClient builds a client of the given kind.
func (d *Deployment) NewClient(kind Kind, ch *host.Host, sig *sim.Signal) Client {
	switch kind {
	case KindOneSided:
		return d.NewOneSided(ch)
	case KindRPC:
		return d.NewRPC(ch, sig)
	default:
		return d.NewAdaptive(ch, sig)
	}
}
