// Package cluster assembles a simulated testbed: N hosts attached to one
// switch, with a single Config controlling every model parameter. The
// default configuration mirrors the paper's evaluation platform (§3.6.1):
// 12 nodes, dual Xeon E5-2650 v4 (24 cores, 30 MB LLC), ConnectX-3 FDR
// HCAs on a 56 Gbps Mellanox SX-1012 switch.
package cluster

import (
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/fabric"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/pcie"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// Config is the complete description of a simulated cluster.
type Config struct {
	Hosts  int
	Seed   uint64
	Fabric fabric.Config
	NIC    nic.Config
	Host   host.Config
	PCIe   pcie.CostModel
}

// Default returns the paper-testbed configuration with n hosts.
func Default(n int) Config {
	return Config{
		Hosts:  n,
		Seed:   1,
		Fabric: fabric.DefaultConfig(),
		NIC:    nic.DefaultConfig(),
		Host:   host.DefaultConfig(),
		PCIe:   pcie.DefaultCostModel(),
	}
}

// Cluster is a running testbed.
type Cluster struct {
	Cfg    Config
	Env    *sim.Env
	Fabric *fabric.Fabric
	Hosts  []*host.Host
	RNG    *stats.RNG

	// Telemetry is the cluster-wide metrics registry. Every host's NIC,
	// PCIe bus, LLC and CPU accounting registers into it at build time;
	// RPC transports claim their scopes from it when constructed.
	Telemetry *telemetry.Registry

	// Faults is the installed fault plane, nil on clean runs. Set by
	// InstallFaults.
	Faults *faults.Plane

	// Ctrl is the connection control plane, built lazily by CtrlPlane so
	// clusters that never dial in-band pay no extra simulation events.
	Ctrl *ctrlplane.Directory
}

// New builds a cluster from cfg.
func New(cfg Config) *Cluster {
	env := sim.NewEnv()
	fab := fabric.New(env, cfg.Fabric, cfg.Hosts)
	rng := stats.NewRNG(cfg.Seed)
	c := &Cluster{Cfg: cfg, Env: env, Fabric: fab, RNG: rng, Telemetry: telemetry.NewRegistry()}
	arena := new(nic.Arena)
	for i := 0; i < cfg.Hosts; i++ {
		c.Hosts = append(c.Hosts, host.New(env, i, cfg.Host, cfg.NIC, cfg.PCIe, fab, arena, rng.Split(), c.Telemetry))
	}
	return c
}

// Close tears down the simulation, terminating all live processes.
func (c *Cluster) Close() { c.Env.Close() }

// InstallFaults activates a fault scenario on this cluster: the plane takes
// over the fabric's interceptor, its counters join the registry under the
// "faults" scope, and every host NIC gets the scenario's reliability tuning
// (enabling the RC retransmit timer, which lossless runs leave off). The
// plane's RNG derives from the cluster seed unless the scenario pins its
// own, so fault decisions replay deterministically with the run.
func (c *Cluster) InstallFaults(sc *faults.Scenario) *faults.Plane {
	rng := c.RNG.Split()
	if sc.Seed != 0 {
		rng = stats.NewRNG(sc.Seed)
	}
	p := faults.New(c.Env, sc, rng)
	p.Install(c.Fabric)
	p.Register(c.Telemetry.UniqueScope("faults"))
	for i, h := range c.Hosts {
		p.TuneNICNode(i, &h.NIC.Cfg)
	}
	// Straggler episodes slow the afflicted host's CPU; the NIC-side
	// slowdown is applied by the plane's interceptor.
	p.OnStraggler(func(st faults.Straggler) {
		if st.Node >= 0 && st.Node < len(c.Hosts) && st.CPUFactor > 1 {
			c.Hosts[st.Node].SetCPUScale(st.CPUFactor)
		}
	})
	p.OnStragglerEnd(func(node int) {
		if node >= 0 && node < len(c.Hosts) {
			c.Hosts[node].SetCPUScale(0)
		}
	})
	c.Faults = p
	return p
}

// CtrlPlane builds (on first call) and returns the connection control
// plane: one started ctrlplane.Manager per host, resolvable through the
// returned directory. Production-style wiring dials through this — the
// in-band, costed handshake — while ConnectRC/ConnectUC below remain the
// zero-cost test backdoors.
func (c *Cluster) CtrlPlane() *ctrlplane.Directory {
	return c.CtrlPlaneWith(ctrlplane.DefaultConfig())
}

// CtrlPlaneWith is CtrlPlane with an explicit manager configuration — how
// the gray-failure runs enable the adaptive failure detector and the
// connection experiments widen dial timeouts, the recv ring and the lease
// TTL. Only the first call's configuration takes effect; later calls
// return the already-built directory.
func (c *Cluster) CtrlPlaneWith(cfg ctrlplane.Config) *ctrlplane.Directory {
	if c.Ctrl == nil {
		c.Ctrl = ctrlplane.NewDirectory()
		for _, h := range c.Hosts {
			ctrlplane.NewManager(h, cfg, c.Ctrl).Start()
		}
	}
	return c.Ctrl
}

// ConnectRC creates and connects an RC QP pair between hosts a and b using
// the given CQs. This is the out-of-band, zero-cost test backdoor
// (nic.Connect); production wiring goes through CtrlPlane.
func (c *Cluster) ConnectRC(a, b *host.Host, aSend, aRecv, bSend, bRecv *nic.CQ) (*nic.QP, *nic.QP) {
	qa := a.NIC.CreateQP(nic.RC, aSend, aRecv)
	qb := b.NIC.CreateQP(nic.RC, bSend, bRecv)
	if err := nic.Connect(qa, qb); err != nil {
		panic(err)
	}
	return qa, qb
}

// ConnectUC creates and connects a UC QP pair.
func (c *Cluster) ConnectUC(a, b *host.Host, aSend, aRecv, bSend, bRecv *nic.CQ) (*nic.QP, *nic.QP) {
	qa := a.NIC.CreateQP(nic.UC, aSend, aRecv)
	qb := b.NIC.CreateQP(nic.UC, bSend, bRecv)
	if err := nic.Connect(qa, qb); err != nil {
		panic(err)
	}
	return qa, qb
}
