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
	Kind      string // failover, promote, degrade, restore, push, publish
	Host      int
	Partition int
	Epoch     uint32
}

// sweepInterval is the director's liveness sweep period. In fixed-TTL mode
// a node is declared dead once its manager lease lapses (Config.LeaseTTL);
// under the adaptive detector eviction comes from the ladder instead.
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

	// Ladder transitions queued by the manager's OnPeerState hook (which
	// must not block) and drained by the sweep thread, which can dial.
	pendFail    []int
	pendDegrade []int
	pendRestore []int

	stats     *Stats
	started   bool
	svcHandle uint64
}

// NewDirector builds a director for m on the given control-plane manager
// and registers its fetch and lease services. When the manager runs the
// adaptive failure detector, the director also subscribes to its ladder: a
// demoted node host is marked degraded in an epoch-bumped map (routers then
// steer its reads to backups), a restored one is cleared, and eviction
// triggers the same failover the fixed TTL would.
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
	if mgr.DetectorEnabled() {
		mgr.OnPeerState(func(peer int, old, new ctrlplane.PeerState) {
			if !d.isNodeHost(peer) {
				return
			}
			switch new {
			case ctrlplane.PeerDemoted:
				d.pendDegrade = append(d.pendDegrade, peer)
			case ctrlplane.PeerHealthy:
				d.pendRestore = append(d.pendRestore, peer)
			case ctrlplane.PeerEvicted:
				d.pendFail = append(d.pendFail, peer)
			}
		})
	}
	return d
}

func (d *Director) isNodeHost(h int) bool {
	for _, n := range d.nodeHosts {
		if n == h {
			return true
		}
	}
	return false
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
		// Drain ladder transitions queued since the last sweep (adaptive
		// mode): failovers first so a host that raced through
		// demote→evict is not pointlessly degraded after its death.
		for _, h := range takeInts(&d.pendFail) {
			if !d.down[h] {
				d.failover(t, h)
			}
		}
		for _, h := range takeInts(&d.pendDegrade) {
			d.setDegraded(t, h, true)
		}
		for _, h := range takeInts(&d.pendRestore) {
			d.setDegraded(t, h, false)
		}
		if d.mgr.DetectorEnabled() {
			continue // eviction comes from the ladder, not the fixed TTL
		}
		for _, h := range d.nodeHosts {
			if d.down[h] {
				continue
			}
			if d.mgr.LeaseLapsed(h) {
				d.failover(t, h)
			}
		}
	}
}

func takeInts(p *[]int) []int {
	out := *p
	*p = nil
	return out
}

// setDegraded flips a host's degraded mark and distributes the new map
// version (push-before-publish, same as failover). No-op when the mark
// already matches or the host is down.
func (d *Director) setDegraded(t *host.Thread, h int, degraded bool) {
	if d.down[h] {
		return
	}
	next := d.cur.Clone()
	if !next.SetDegraded(h, degraded) {
		return
	}
	kind := "degrade"
	if !degraded {
		kind = "restore"
	}
	d.event(kind, h, -1, next.Epoch)
	d.distribute(t, next)
	d.cur = next
	if degraded {
		d.stats.Degrades++
	} else {
		d.stats.Restores++
	}
	d.event("publish", h, -1, next.Epoch)
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
