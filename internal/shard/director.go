package shard

import (
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// Control-plane service names the shard subsystem registers.
const (
	// SvcMap serves the current map to routers (director side).
	SvcMap = "shard.map"
	// SvcLease is the liveness anchor nodes dial and hold (director side).
	SvcLease = "shard.lease"
	// SvcNodePush receives map versions from the director (node side).
	SvcNodePush = "shard.node"
)

// Event is one entry in the director's deterministic decision log.
type Event struct {
	At        sim.Time
	Kind      string // failover, promote, push, publish
	Host      int
	Partition int
	Epoch     uint32
}

// sweepInterval is the director's liveness sweep period: a node is
// declared dead once its manager lease lapses (Config.LeaseTTL), whatever
// the manager's detector mode.
const sweepInterval = 100 * sim.Microsecond

// Director owns the authoritative shard map: it serves fetches, watches
// node liveness through the control plane's lease stream, and on expiry
// runs the failover protocol — bump the epoch, promote backups, push the
// new map to every live node, and only then publish it to routers
// (push-before-publish closes the window where a client knows a map the
// serving node has not installed yet).
type Director struct {
	Events []Event

	mgr       *ctrlplane.Manager
	cur       *Map // authoritative, already pushed to nodes
	nodeHosts []int
	down      map[int]bool

	stats     *Stats
	started   bool
	svcHandle uint64
}

// NewDirector builds a director for m on the given control-plane manager
// and registers its fetch and lease services.
func NewDirector(mgr *ctrlplane.Manager, m *Map) *Director {
	d := &Director{
		mgr:       mgr,
		cur:       m.Clone(),
		nodeHosts: append([]int(nil), m.Hosts...),
		down:      make(map[int]bool),
		stats:     SharedStats(mgr.Host().Tel.Registry()),
	}
	mgr.RegisterService(SvcMap, mapSvc{d})
	mgr.RegisterService(SvcLease, leaseSvc{d})
	return d
}

// Map returns the published map.
func (d *Director) Map() *Map { return d.cur }

// Start launches the liveness sweep thread.
func (d *Director) Start() {
	if d.started {
		return
	}
	d.started = true
	d.mgr.Host().Spawn("shard-director", d.run)
}

func (d *Director) run(t *host.Thread) {
	for {
		t.P.Sleep(sweepInterval)
		for _, h := range d.nodeHosts {
			if !d.down[h] && d.mgr.LeaseLapsed(h) {
				d.failover(t, h)
			}
		}
	}
}

// failover promotes around a dead host and distributes the new map.
func (d *Director) failover(t *host.Thread, dead int) {
	d.down[dead] = true
	next := d.cur.Clone()
	promoted := next.Failover(dead)
	d.event("failover", dead, -1, next.Epoch)
	for _, p := range promoted {
		d.event("promote", next.Primary[p], p, next.Epoch)
	}
	// Push to every live node first, then publish to routers.
	d.distribute(t, next)
	d.cur = next
	d.stats.Failovers++
	d.event("publish", dead, -1, next.Epoch)
}

// distribute pushes a new map version to every live node (sorted order:
// deterministic log) — publication to routers is the caller's d.cur swap,
// after every push, closing the window where a client knows a map the
// serving node has not installed yet.
func (d *Director) distribute(t *host.Thread, next *Map) {
	for _, h := range d.nodeHosts {
		if d.down[h] {
			continue
		}
		if conn, err := d.mgr.Dial(t, h, SvcNodePush, next.Encode()); err == nil {
			conn.Close(t)
			d.event("push", h, -1, next.Epoch)
		}
	}
}

func (d *Director) event(kind string, hostID, part int, epoch uint32) {
	d.Events = append(d.Events, Event{
		At: d.mgr.Host().Env.Now(), Kind: kind, Host: hostID, Partition: part, Epoch: epoch,
	})
}

// mapSvc serves the published map to routers.
type mapSvc struct{ d *Director }

func (s mapSvc) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	s.d.svcHandle++
	return s.d.cur.Encode(), s.d.svcHandle, nil
}

func (s mapSvc) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	return s.d.cur.Encode(), handle, nil
}

func (s mapSvc) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {}

// leaseSvc anchors node liveness: nodes dial it once and hold the
// connection, so their managers' keepalives reach the director.
type leaseSvc struct{ d *Director }

func (s leaseSvc) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	s.d.svcHandle++
	return nil, s.d.svcHandle, nil
}

func (s leaseSvc) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	return nil, handle, nil
}

func (s leaseSvc) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {}
