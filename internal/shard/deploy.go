package shard

import (
	"fmt"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// DeployConfig shapes a sharded deployment on a cluster.
type DeployConfig struct {
	Partitions   int
	ShardHosts   []int
	DirectorHost int
	// Store sizes each partition's MICA store.
	Store mica.Config
	// Srv is the client-facing ScaleRPC server config per shard host.
	Srv scalerpc.ServerConfig
}

// DefaultDeployConfig mirrors the multi-server ScaleRPC setup the txn
// benchmarks use (static grouping + NTP-like sync).
func DefaultDeployConfig(partitions int, shardHosts []int, directorHost int, store mica.Config) DeployConfig {
	srv := scalerpc.DefaultServerConfig()
	srv.Dynamic = false
	srv.SyncPeriod = 2 * sim.Millisecond
	return DeployConfig{
		Partitions:   partitions,
		ShardHosts:   shardHosts,
		DirectorHost: directorHost,
		Store:        store,
		Srv:          srv,
	}
}

// Deployment is a running sharded store: one node (ScaleRPC server +
// replication server) per shard host, a full primary→backup replication
// mesh, and a director distributing the map through the control plane.
type Deployment struct {
	Cluster  *cluster.Cluster
	Cfg      DeployConfig
	Map      *Map // bootstrap map (epoch 1); the live map is at the director
	Nodes    map[int]*Node
	Servers  map[int]*scalerpc.Server
	ReplSrvs map[int]*rawrpc.Server
	Director *Director
	Stats    *Stats

	readBuf []byte // ReadKV's value buffer
	// splitQueued is set once LoadKV has queued the split of every
	// partition's store pair for the first simulated event.
	splitQueued bool
}

// Deploy builds and starts a sharded store on cl.
func Deploy(cl *cluster.Cluster, cfg DeployConfig) *Deployment {
	m := NewMap(cfg.Partitions, cfg.ShardHosts)
	ctrl := cl.CtrlPlane()
	d := &Deployment{
		Cluster:  cl,
		Cfg:      cfg,
		Map:      m,
		Nodes:    make(map[int]*Node),
		Servers:  make(map[int]*scalerpc.Server),
		ReplSrvs: make(map[int]*rawrpc.Server),
		Stats:    SharedStats(cl.Telemetry),
	}
	// The replication plane is a slim raw-write server of its own, so
	// client-facing handlers that block on a synchronous forward can never
	// starve the plane that acks it.
	repl := rawrpc.DefaultServerConfig()
	repl.Workers = 4
	repl.MaxClients = 64
	var scaleSrvs []*scalerpc.Server
	for _, hid := range cfg.ShardHosts {
		h := cl.Hosts[hid]
		n := NewNode(h, m, cfg.Store)
		srv := scalerpc.NewServer(h, cfg.Srv)
		rsrv := rawrpc.NewServer(h, repl)
		n.RegisterOn(srv, rsrv)
		srv.Start()
		rsrv.Start()
		n.InstallPushService(ctrl.Manager(hid))
		n.StartLease(ctrl.Manager(hid), cfg.DirectorHost)
		d.Nodes[hid] = n
		d.Servers[hid] = srv
		d.ReplSrvs[hid] = rsrv
		scaleSrvs = append(scaleSrvs, srv)
	}
	if len(scaleSrvs) > 1 {
		scalerpc.NewSyncGroup(scaleSrvs)
	}
	// Full replication mesh: any node may be drafted as any partition's
	// backup after a failover.
	for _, a := range cfg.ShardHosts {
		for _, b := range cfg.ShardHosts {
			if a == b {
				continue
			}
			conn := d.ReplSrvs[b].Connect(cl.Hosts[a], d.Nodes[a].ReplSignal())
			d.Nodes[a].AddReplLink(b, conn)
		}
	}
	d.Director = NewDirector(ctrl.Manager(cfg.DirectorHost), m)
	d.Director.Start()
	return d
}

// NewRouter builds a router on a client host: one ScaleRPC connection per
// shard host plus a control-plane map fetch against the director.
func (d *Deployment) NewRouter(ch *host.Host, cfg RouterConfig) *Router {
	sig := sim.NewSignal(d.Cluster.Env)
	conns := make(map[int]rpccore.Conn, len(d.Cfg.ShardHosts))
	for _, hid := range d.Cfg.ShardHosts {
		conns[hid] = d.Servers[hid].Connect(ch, sig)
	}
	mgr := d.Cluster.Ctrl.Manager(ch.ID)
	dirHost := d.Cfg.DirectorHost
	fetch := func(t *host.Thread) *Map {
		conn, err := mgr.Dial(t, dirHost, SvcMap, nil)
		if err != nil {
			return nil
		}
		m, derr := DecodeMap(conn.Payload)
		conn.Close(t)
		if derr != nil {
			return nil
		}
		return m
	}
	return NewRouter(ch, d.Map, conns, sig, cfg, fetch)
}

// NewCoordinator threads a routed ScaleTX coordinator through r: one
// partition-bound connection per partition, with the shard map as the
// placement function — SmallBank and the objstore workloads run unmodified
// against the sharded store.
func (d *Deployment) NewCoordinator(r *Router, id uint64) *txn.Coordinator {
	conns := make([]rpccore.Conn, d.Cfg.Partitions)
	for p := range conns {
		conns[p] = r.PartConn(p)
	}
	place := func(key []byte) int { return r.Map().PartitionOf(key) }
	return txn.NewRoutedCoordinator(r.Host(), id, conns, place, r.Signal())
}

// LoadKV writes one row into a partition's primary store, and so into its
// backup (deploy-time bulk loading, bypassing the wire). The backup store
// follows the primary's (mica.Store.Follow): it holds the row without a
// copy of its own until the pair splits, at the first call on either store
// that is not a load, at a Node.Store of either, or before the first
// simulated event, whichever comes first. From then on the backup's region
// shares the primary's loaded units copy-on-write. A row loaded after the
// split, or once an event has fired, is written to both stores.
func (d *Deployment) LoadKV(key, value []byte) error {
	p := d.Map.PartitionOf(key)
	prim := d.Nodes[d.Map.Primary[p]]
	if prim == nil {
		return fmt.Errorf("shard: partition %d primary host %d has no node", p, d.Map.Primary[p])
	}
	ps := prim.loadStore(p)
	var bs *mica.Store // a backup that does not follow ps
	if b := d.Map.Backup[p]; b != NoHost {
		bs = d.Nodes[b].loadStore(p)
		if d.Cluster.Env.Fired() == 0 && bs.Follow(ps) {
			bs = nil
			if !d.splitQueued {
				d.splitQueued = true
				d.Cluster.Env.BeforeRun(d.splitLoaded)
			}
		}
	}
	if _, err := ps.Put(nil, key, value); err != nil || bs == nil {
		return err
	}
	_, err := bs.Put(nil, key, value)
	return err
}

// splitLoaded splits every partition's store pair LoadKV made.
func (d *Deployment) splitLoaded() {
	d.splitQueued = false
	for p, b := range d.Map.Backup {
		if b != NoHost {
			d.Nodes[b].loadStore(p).Split()
		}
	}
}

// LiveMap returns the director's current (post-failover) map.
func (d *Deployment) LiveMap() *Map {
	if d.Director != nil {
		return d.Director.Map()
	}
	return d.Map
}

// ReadKV reads a row directly from its current primary store (audits and
// balance sweeps, bypassing the wire). The value is read into a buffer the
// next ReadKV reuses: copy it to retain it.
func (d *Deployment) ReadKV(key []byte) ([]byte, error) {
	m := d.LiveMap()
	p := m.PartitionOf(key)
	it, err := d.Nodes[m.Primary[p]].Store(p).GetValue(nil, key, d.readBuf[:0])
	if err != nil {
		return nil, err
	}
	d.readBuf = it.Value
	return it.Value, nil
}
