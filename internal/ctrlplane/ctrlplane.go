// Package ctrlplane makes RDMA connection establishment a first-class,
// costed, in-band operation. Each host runs a connection Manager that
// serves an RDMA-CM-style handshake over a bootstrap UD QP: a dialing
// client creates an RC QP, walks it RESET→INIT→RTR→RTS with the modeled
// ModifyQP verb latencies, and exchanges QPN/PSN (plus an opaque service
// payload carrying rkeys) with the server's manager, which admits the
// connection through a registered Service. Server-side setup runs
// serialized on the manager thread — the control-plane bottleneck Swift
// identifies for elastic workloads.
//
// On top of the handshake the manager layers lease-based liveness (clients
// with active connections send aggregated per-peer keepalives; a server
// evicts every connection of a peer whose lease lapses — crashes injected
// by internal/faults silence the keepalives, so stale state tears down
// deterministically) and a connection cache (a graceful close parks the
// still-paired RTS QP halves on both sides; a later dial to the same peer
// and service resumes the pair in one round trip, skipping QP setup; an
// LRU cap and idle timeout bound the parked set, in the spirit of
// RDMAvisor's connection sharing service).
package ctrlplane

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"scalerpc/internal/fabric"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// Manager timing and buffer sizes no deployment varies.
const (
	slotBytes                  = 256     // per-message buffer size
	sweepInterval sim.Duration = 25_000  // manager housekeeping period
	leaseInterval sim.Duration = 100_000 // keepalive send period per peer
)

// Config holds the manager parameters.
type Config struct {
	RecvDepth int          // bootstrap UD receive window
	LeaseTTL  sim.Duration // silence after which a peer's conns expire

	CacheCap    int          // max parked connections per side
	IdleTimeout sim.Duration // parked connections older than this tear down

	DialTimeout sim.Duration // per-attempt handshake reply timeout
	DialRetries int          // resends before a dial fails

	// AdmitQueueTimeout bounds how long a dial parked by a Gatekeeper's
	// ErrAdmitQueue may wait for quota; entries still over quota after
	// this age are rejected. Queued entries are re-examined every sweep.
	AdmitQueueTimeout sim.Duration

	// Adaptive replaces fixed-TTL lease expiry with the phi-accrual
	// detector and its degradation ladder (see detector.go). LeaseTTL
	// stays as the safety net for peers without enough arrival history.
	// False keeps the fixed-TTL behaviour byte-identical.
	Adaptive bool
}

// DefaultConfig returns the standard control-plane timing parameters.
func DefaultConfig() Config {
	return Config{
		RecvDepth:         128,
		LeaseTTL:          400_000,
		CacheCap:          256,
		IdleTimeout:       5_000_000,
		DialTimeout:       200_000,
		DialRetries:       3,
		AdmitQueueTimeout: 400_000,
	}
}

// CloseReason tells a Service why a connection went away.
type CloseReason int

// Close reasons.
const (
	// CloseLeave is a graceful client close: the QP pair parks in the
	// connection cache and the handle may Resume later.
	CloseLeave CloseReason = iota
	// CloseExpired means the peer's lease lapsed (missed keepalives —
	// typically a crash); the QP is destroyed.
	CloseExpired
	// CloseTeardown means the cache discarded a parked connection (idle
	// timeout or capacity eviction); the handle will not resume.
	CloseTeardown
	// CloseError means the connection's QP entered the error state.
	CloseError
)

func (r CloseReason) String() string {
	switch r {
	case CloseLeave:
		return "leave"
	case CloseExpired:
		return "expired"
	case CloseTeardown:
		return "teardown"
	case CloseError:
		return "error"
	}
	return "?"
}

// Service is the server-side application endpoint a connection attaches
// to. The manager owns the QP lifecycle; services only learn about
// admissions and departures.
type Service interface {
	// Accept admits a new connection whose server-side QP is already RTS
	// and paired. payload is the opaque data from the connect request
	// (typically the client's rkeys); the returned payload travels back in
	// the accept. handle identifies the connection in Resume/Closed.
	Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) (resp []byte, handle uint64, err error)
	// Resume reactivates a connection previously parked by a graceful
	// close; qp is the same, still-paired QP. Cached connections are
	// fungible — a client may resume a pair parked by a different
	// connection to the same (peer, service) — so the service identifies
	// the caller from payload and returns the handle the connection is
	// now bound to (the passed handle is the one recorded when the pair
	// parked, which may belong to someone else by now).
	Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) (resp []byte, newHandle uint64, err error)
	// Closed reports a departure. For every reason except CloseLeave the
	// QP is being destroyed and the handle will not return.
	Closed(peer int, handle uint64, reason CloseReason)
}

// ErrAdmitQueue is the sentinel a Gatekeeper returns to park a dial in the
// manager's admission queue instead of rejecting it outright: the request
// is retried every sweep until the gate clears, then accepted, or until
// AdmitQueueTimeout lapses, then rejected.
var ErrAdmitQueue = errors.New("ctrlplane: admission queued")

// Gatekeeper is an optional extension a Service implements to screen dials
// before any QP is created: admission control. PreAdmit sees the connect
// (or resume) request's opaque payload and returns nil to proceed,
// ErrAdmitQueue (possibly wrapped) to park the dial in the admission
// queue, or any other error to reject with that reason. PreAdmit must be
// side-effect free — the manager calls it again on every queue retry, and
// Accept/Resume still runs afterwards as the authoritative admission.
type Gatekeeper interface {
	PreAdmit(peer int, service string, payload []byte) error
}

// Event is one entry of the manager's connection event log. The log is the
// determinism surface: a fixed seed must reproduce it exactly.
type Event struct {
	At     sim.Time
	Kind   string // accept, resume, leave, expire, evict, reject, idle_teardown, cap_evict
	Peer   int
	QPN    uint32
	Handle uint64
}

// Directory resolves a host ID to its Manager — the out-of-band address
// resolution (DNS + the well-known CM port) a real deployment has before
// any RDMA connection exists.
type Directory struct {
	mgrs map[int]*Manager
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{mgrs: map[int]*Manager{}} }

// Manager returns the manager registered for the host, or nil.
func (d *Directory) Manager(hostID int) *Manager { return d.mgrs[hostID] }

// serverConn is an active inbound connection.
type serverConn struct {
	peer      int
	svc       string
	qp        *nic.QP
	handle    uint64
	clientQPN uint32
	acceptMsg wireMsg // replayed on duplicate connect requests
}

// srvCacheEntry is a parked inbound connection.
type srvCacheEntry struct {
	peer      int
	svc       string
	qp        *nic.QP
	handle    uint64
	clientQPN uint32
	parkedAt  sim.Time
}

// cliCacheEntry is a parked outbound connection.
type cliCacheEntry struct {
	qp        *nic.QP
	remoteQPN uint32
	parkedAt  sim.Time
}

type cacheKey struct {
	peer int
	svc  string
}

type dupKey struct {
	peer      int
	clientQPN uint32
}

// dialWait parks a dialing thread until its handshake reply arrives.
type dialWait struct {
	sig  *sim.Signal
	done bool
	resp wireMsg
}

// Stats are the manager's telemetry counters (registered under
// ctrlplane<host>.*).
type Stats struct {
	DialsCold     uint64
	DialsCached   uint64
	DialsFailed   uint64
	Accepts       uint64
	Resumes       uint64
	Rejects       uint64
	Leaves        uint64
	LeaseExpiries uint64
	Evictions     uint64 // QP-error evictions
	CacheHits     uint64
	CacheMisses   uint64
	IdleTeardowns uint64
	CapEvictions  uint64
	KeepalivesTx  uint64
	KeepalivesRx  uint64
	AdmitQueued   uint64 // dials parked by a Gatekeeper
	AdmitReleased uint64 // parked dials later admitted
	AdmitTimeouts uint64 // parked dials rejected at AdmitQueueTimeout

	// Failure-detector counters (detector.*). Suspicions/Demotions count
	// ladder escalations; DetectorEvictions counts peers the adaptive
	// detector declared dead; FalseEvictions counts lease/detector
	// evictions of peers the registered ground truth says were alive
	// (counted in fixed-TTL mode too, so the two modes are comparable);
	// Readmits counts quarantined peers admitted back; Probes and PingsRx
	// count detector pings sent and received.
	DetectorSuspicions uint64
	DetectorDemotions  uint64
	DetectorEvictions  uint64
	FalseEvictions     uint64
	DetectorReadmits   uint64
	DetectorProbes     uint64
	PingsRx            uint64
}

// admitEntry is one dial parked in the admission queue (FIFO).
type admitEntry struct {
	peer int
	msg  wireMsg
	at   sim.Time
}

const sendRing = 32

// Manager is the per-host connection manager: it serves the handshake for
// inbound connections, dials outbound ones, and sweeps leases and caches.
type Manager struct {
	h   *host.Host
	cfg Config
	dir *Directory

	udQP    *nic.QP
	cq      *nic.CQ
	recvReg *memory.Region
	sendReg *memory.Region
	sendIdx int

	services map[string]Service

	nextReq uint64
	nextPSN uint64
	pending map[uint64]*dialWait

	conns    map[uint32]*serverConn // active inbound, by server QPN
	dups     map[dupKey]uint32      // connect-request dedup → server QPN
	srvCache map[uint32]*srvCacheEntry

	admitQueue []admitEntry    // dials parked by a Gatekeeper, FIFO
	admitKeys  map[dupKey]bool // dedup for queued dials (resends)

	cliActive map[uint32]*Conn // active outbound, by client QPN
	cliCache  map[cacheKey][]*cliCacheEntry
	cliCached int

	leases map[int]sim.Time // inbound: last keepalive per peer
	lastKA map[int]sim.Time // outbound: last keepalive sent per peer

	// Adaptive failure detection (nil maps/fields when Config.Adaptive is
	// false). det holds per-peer ladder state; detRNG jitters quarantine
	// lockouts; groundTruth, when set by a harness, reports whether a peer
	// is genuinely down (false-eviction accounting); onPeerState hooks let
	// data planes react to ladder transitions.
	det         map[int]*peerDetector
	detRNG      *stats.RNG
	detScope    telemetry.Scope
	groundTruth func(peer int) bool
	onPeerState []func(peer int, old, new PeerState)

	// Events is the deterministic connection event log.
	Events []Event

	Stats       Stats
	activeGauge float64
	cachedGauge float64
	coldHist    *stats.Histogram
	cachedHist  *stats.Histogram
	trace       *telemetry.Trace

	started bool
}

// NewManager builds a manager for the host and registers it in the
// directory. Call Start to launch its service thread.
func NewManager(h *host.Host, cfg Config, dir *Directory) *Manager {
	cq := h.NIC.CreateCQ()
	m := &Manager{
		h:         h,
		cfg:       cfg,
		dir:       dir,
		udQP:      h.NIC.CreateQP(nic.UD, cq, cq),
		cq:        cq,
		recvReg:   h.Mem.Register(cfg.RecvDepth*slotBytes, memory.PageSize2M, memory.LocalWrite),
		sendReg:   h.Mem.Register(sendRing*slotBytes, memory.PageSize2M, memory.LocalWrite),
		services:  make(map[string]Service),
		nextPSN:   uint64(h.ID)*1_000_000 + 1,
		pending:   make(map[uint64]*dialWait),
		conns:     make(map[uint32]*serverConn),
		dups:      make(map[dupKey]uint32),
		srvCache:  make(map[uint32]*srvCacheEntry),
		admitKeys: make(map[dupKey]bool),
		cliActive: make(map[uint32]*Conn),
		cliCache:  make(map[cacheKey][]*cliCacheEntry),
		leases:    make(map[int]sim.Time),
		lastKA:    make(map[int]sim.Time),
	}
	for i := 0; i < cfg.RecvDepth; i++ {
		m.udQP.PostRecv(nic.RecvWR{
			WRID: uint64(i), LKey: m.recvReg.LKey,
			LAddr: m.recvReg.Base + uint64(i*slotBytes), Len: slotBytes,
		})
	}
	sc := telemetry.Scope{}
	if reg := h.Tel.Registry(); reg != nil {
		sc = reg.Scope(fmt.Sprintf("ctrlplane%d", h.ID))
	}
	sc.CounterVar("dials_cold", &m.Stats.DialsCold)
	sc.CounterVar("dials_cached", &m.Stats.DialsCached)
	sc.CounterVar("dials_failed", &m.Stats.DialsFailed)
	sc.CounterVar("accepts", &m.Stats.Accepts)
	sc.CounterVar("resumes", &m.Stats.Resumes)
	sc.CounterVar("rejects", &m.Stats.Rejects)
	sc.CounterVar("leaves", &m.Stats.Leaves)
	sc.CounterVar("lease_expiries", &m.Stats.LeaseExpiries)
	sc.CounterVar("evictions", &m.Stats.Evictions)
	sc.CounterVar("cache_hits", &m.Stats.CacheHits)
	sc.CounterVar("cache_misses", &m.Stats.CacheMisses)
	sc.CounterVar("idle_teardowns", &m.Stats.IdleTeardowns)
	sc.CounterVar("cap_evictions", &m.Stats.CapEvictions)
	sc.CounterVar("keepalives_tx", &m.Stats.KeepalivesTx)
	sc.CounterVar("keepalives_rx", &m.Stats.KeepalivesRx)
	sc.CounterVar("admit_queued", &m.Stats.AdmitQueued)
	sc.CounterVar("admit_released", &m.Stats.AdmitReleased)
	sc.CounterVar("admit_timeouts", &m.Stats.AdmitTimeouts)
	sc.CounterVar("detector.suspicions", &m.Stats.DetectorSuspicions)
	sc.CounterVar("detector.demotions", &m.Stats.DetectorDemotions)
	sc.CounterVar("detector.evictions", &m.Stats.DetectorEvictions)
	sc.CounterVar("detector.false_evictions", &m.Stats.FalseEvictions)
	sc.CounterVar("detector.readmits", &m.Stats.DetectorReadmits)
	sc.CounterVar("detector.probes", &m.Stats.DetectorProbes)
	sc.CounterVar("detector.pings_rx", &m.Stats.PingsRx)
	sc.GaugeVar("active", &m.activeGauge)
	sc.GaugeVar("cached", &m.cachedGauge)
	m.coldHist = sc.Histogram("setup_cold_ns")
	m.cachedHist = sc.Histogram("setup_cached_ns")
	m.trace = sc.Trace()
	if cfg.Adaptive {
		// The RNG split happens only on detector-enabled managers so
		// existing fixed-TTL runs keep their exact RNG streams.
		m.det = make(map[int]*peerDetector)
		m.detRNG = h.RNG.Split()
		m.detScope = sc.Scope("detector")
	}
	dir.mgrs[h.ID] = m
	return m
}

// RegisterService installs the server-side endpoint for a service name.
func (m *Manager) RegisterService(name string, svc Service) { m.services[name] = svc }

// Host returns the manager's host.
func (m *Manager) Host() *host.Host { return m.h }

// PeerLease reports when the last keepalive (or handshake) from peer was
// observed, and whether one has been observed at all. Failure detectors
// above the control plane (e.g. the shard director) compare the age against
// Config.LeaseTTL instead of running their own heartbeat protocol.
func (m *Manager) PeerLease(peer int) (sim.Time, bool) {
	at, ok := m.leases[peer]
	return at, ok
}

// Start launches the manager thread (handshake serving + sweeps).
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	m.h.Spawn("ctrlmgr", m.run)
}

func (m *Manager) event(kind string, peer int, qpn uint32, handle uint64) {
	m.Events = append(m.Events, Event{At: m.h.Env.Now(), Kind: kind, Peer: peer, QPN: qpn, Handle: handle})
	if m.trace.Enabled {
		m.trace.Emit(m.h.Env.Now(), "ctrl_"+kind,
			telemetry.A("host", int64(m.h.ID)), telemetry.A("peer", int64(peer)),
			telemetry.A("qpn", int64(qpn)))
	}
}

// send serializes and UD-sends one control message to the peer's manager.
func (m *Manager) send(t *host.Thread, dst int, msg *wireMsg) {
	peer := m.dir.Manager(dst)
	if peer == nil {
		return
	}
	off := m.sendIdx * slotBytes
	m.sendIdx = (m.sendIdx + 1) % sendRing
	n := msg.encode(m.sendReg.Bytes()[off:])
	t.WriteMem(m.sendReg.Base+uint64(off), n)
	wr := nic.SendWR{
		Op:   nic.OpSend,
		LKey: m.sendReg.LKey, LAddr: m.sendReg.Base + uint64(off), Len: n,
		DstNIC: dst, DstQPN: peer.udQP.QPN,
		Class: fabric.ClassControl,
	}
	if msg.kind == kindKeepalive || msg.kind == kindPing {
		wr.Class = fabric.ClassKeepalive
	}
	if n <= m.h.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	t.PostSend(m.udQP, wr)
}

// run is the manager thread: drain handshake traffic, then sweep leases
// and caches on the configured period.
func (m *Manager) run(t *host.Thread) {
	next := t.P.Now() + sweepInterval
	for {
		wait := next - t.P.Now()
		if wait < 1 {
			wait = 1
		}
		for _, e := range t.WaitCQ(m.cq, 32, wait) {
			m.handleCQE(t, e)
		}
		if t.P.Now() >= next {
			m.sweep(t)
			next = t.P.Now() + sweepInterval
		}
	}
}

func (m *Manager) handleCQE(t *host.Thread, e nic.CQE) {
	slot := int(e.WRID)
	addr := m.recvReg.Base + uint64(slot*slotBytes)
	var msg wireMsg
	var err error
	if e.Status == nic.CQOK {
		t.ReadMem(addr, e.ByteLen)
		off := slot * slotBytes
		msg, err = decodeMsg(m.recvReg.Bytes()[off : off+e.ByteLen])
	}
	m.udQP.PostRecv(nic.RecvWR{WRID: e.WRID, LKey: m.recvReg.LKey, LAddr: addr, Len: slotBytes})
	if e.Status != nic.CQOK || err != nil {
		return
	}
	t.Work(t.Host.Cfg.BaseOpCost)
	switch msg.kind {
	case kindConnReq:
		m.onConnReq(t, e.SrcNIC, &msg)
	case kindResume:
		m.onResume(t, e.SrcNIC, &msg)
	case kindAccept, kindReject:
		if w := m.pending[msg.reqID]; w != nil && !w.done {
			w.done = true
			w.resp = msg
			w.sig.Broadcast()
		}
	case kindReady:
		// The client reached RTS; nothing further to do in the model.
	case kindKeepalive:
		m.Stats.KeepalivesRx++
		m.leases[e.SrcNIC] = t.P.Now()
		m.detArrival(e.SrcNIC, t.P.Now())
	case kindPing:
		// Failure-detector probe: answer immediately so the suspecting
		// side gets a fresh arrival sample without waiting a leaseInterval.
		m.Stats.PingsRx++
		m.Stats.KeepalivesTx++
		m.send(t, e.SrcNIC, &wireMsg{kind: kindKeepalive})
	case kindDisconnect:
		m.onDisconnect(t, e.SrcNIC, &msg)
	}
}

// onConnReq serves a cold connect: QP creation and the INIT/RTR/RTS walk
// run serialized on this thread, so concurrent dials queue behind each
// other — the Swift control-plane bottleneck, visible in the connsetup
// experiment as cold latency growing with dial concurrency.
func (m *Manager) onConnReq(t *host.Thread, peer int, msg *wireMsg) {
	dk := dupKey{peer, msg.qpn}
	if qpn, ok := m.dups[dk]; ok {
		if sc := m.conns[qpn]; sc != nil {
			// Duplicate of a request we already accepted (our accept was
			// lost or slow): replay it.
			replay := sc.acceptMsg
			m.send(t, peer, &replay)
		}
		return
	}
	if m.admitKeys[dk] {
		return // resend of a dial already parked in the admission queue
	}
	if m.quarantineReject(t, peer, msg) {
		return
	}
	svc := m.services[msg.svc]
	if svc == nil {
		m.reject(t, peer, msg, "unknown service "+msg.svc)
		return
	}
	if err := m.gateCheck(svc, peer, msg); err != nil {
		if errors.Is(err, ErrAdmitQueue) {
			m.enqueueAdmit(t, peer, msg, dk)
		} else {
			m.reject(t, peer, msg, err.Error())
		}
		return
	}
	m.acceptConn(t, peer, msg, svc)
}

// acceptConn runs the post-gate half of a cold connect: QP setup, service
// admission, and the accept reply.
func (m *Manager) acceptConn(t *host.Thread, peer int, msg *wireMsg, svc Service) {
	dk := dupKey{peer, msg.qpn}
	scq := m.h.NIC.CreateCQ()
	sqp := t.CreateQP(nic.RC, scq, scq)
	psn := m.allocPSN()
	if err := m.walkToRTS(t, sqp, peer, msg.qpn, msg.psn, psn); err != nil {
		m.h.NIC.DestroyQP(sqp)
		m.reject(t, peer, msg, err.Error())
		return
	}
	resp, handle, err := svc.Accept(t, peer, sqp, msg.payload)
	if err != nil {
		m.h.NIC.DestroyQP(sqp)
		m.reject(t, peer, msg, err.Error())
		return
	}
	sc := &serverConn{
		peer: peer, svc: msg.svc, qp: sqp, handle: handle, clientQPN: msg.qpn,
		acceptMsg: wireMsg{kind: kindAccept, reqID: msg.reqID, qpn: sqp.QPN, psn: psn, payload: resp},
	}
	m.conns[sqp.QPN] = sc
	m.dups[dk] = sqp.QPN
	m.leases[peer] = t.P.Now()
	m.detArrival(peer, t.P.Now())
	m.Stats.Accepts++
	m.event("accept", peer, sqp.QPN, handle)
	reply := sc.acceptMsg
	m.send(t, peer, &reply)
}

// onResume reactivates a parked connection in one round trip: no QP work,
// just service readmission.
func (m *Manager) onResume(t *host.Thread, peer int, msg *wireMsg) {
	if m.quarantineReject(t, peer, msg) {
		return
	}
	if svc := m.services[msg.svc]; svc != nil {
		dk := dupKey{peer, msg.qpn2}
		if m.admitKeys[dk] {
			return // resend of a resume already parked in the admission queue
		}
		if err := m.gateCheck(svc, peer, msg); err != nil {
			if errors.Is(err, ErrAdmitQueue) {
				m.enqueueAdmit(t, peer, msg, dk)
			} else {
				m.reject(t, peer, msg, err.Error())
			}
			return
		}
	}
	m.resumeConn(t, peer, msg)
}

// resumeConn runs the post-gate half of a cached resume.
func (m *Manager) resumeConn(t *host.Thread, peer int, msg *wireMsg) {
	ent := m.srvCache[msg.qpn]
	if ent == nil || ent.peer != peer || ent.svc != msg.svc ||
		ent.clientQPN != msg.qpn2 || ent.qp.Err() != nil {
		m.reject(t, peer, msg, "not cached")
		return
	}
	svc := m.services[msg.svc]
	if svc == nil {
		m.reject(t, peer, msg, "unknown service "+msg.svc)
		return
	}
	delete(m.srvCache, msg.qpn)
	resp, handle, err := svc.Resume(t, peer, ent.qp, msg.payload, ent.handle)
	if err != nil {
		m.h.NIC.DestroyQP(ent.qp)
		m.reject(t, peer, msg, err.Error())
		return
	}
	sc := &serverConn{
		peer: peer, svc: msg.svc, qp: ent.qp, handle: handle, clientQPN: ent.clientQPN,
		acceptMsg: wireMsg{kind: kindAccept, reqID: msg.reqID, qpn: ent.qp.QPN, flag: 1, payload: resp},
	}
	m.conns[ent.qp.QPN] = sc
	m.dups[dupKey{peer, ent.clientQPN}] = ent.qp.QPN
	m.leases[peer] = t.P.Now()
	m.detArrival(peer, t.P.Now())
	m.Stats.Resumes++
	m.event("resume", peer, ent.qp.QPN, handle)
	reply := sc.acceptMsg
	m.send(t, peer, &reply)
}

func (m *Manager) reject(t *host.Thread, peer int, msg *wireMsg, reason string) {
	m.Stats.Rejects++
	m.event("reject", peer, msg.qpn, 0)
	m.send(t, peer, &wireMsg{kind: kindReject, reqID: msg.reqID, reason: reason})
}

// gateCheck consults the service's Gatekeeper, if it has one.
func (m *Manager) gateCheck(svc Service, peer int, msg *wireMsg) error {
	if gk, ok := svc.(Gatekeeper); ok {
		return gk.PreAdmit(peer, msg.svc, msg.payload)
	}
	return nil
}

// enqueueAdmit parks a gated dial in the FIFO admission queue.
func (m *Manager) enqueueAdmit(t *host.Thread, peer int, msg *wireMsg, dk dupKey) {
	m.admitKeys[dk] = true
	m.admitQueue = append(m.admitQueue, admitEntry{peer: peer, msg: *msg, at: t.P.Now()})
	m.Stats.AdmitQueued++
	m.event("admit_queue", peer, msg.qpn, 0)
}

// drainAdmitQueue retries parked dials in FIFO order: each entry's gate is
// re-checked (an earlier release this pass consumes quota the next entry
// sees), released entries run the normal accept/resume path, and entries
// still gated past AdmitQueueTimeout are rejected.
func (m *Manager) drainAdmitQueue(t *host.Thread) {
	if len(m.admitQueue) == 0 {
		return
	}
	now := t.P.Now()
	kept := m.admitQueue[:0]
	for i := range m.admitQueue {
		e := m.admitQueue[i]
		dk := dupKey{e.peer, e.msg.qpn}
		if e.msg.kind == kindResume {
			dk = dupKey{e.peer, e.msg.qpn2}
		}
		svc := m.services[e.msg.svc]
		if svc == nil {
			delete(m.admitKeys, dk)
			m.reject(t, e.peer, &e.msg, "unknown service "+e.msg.svc)
			continue
		}
		err := m.gateCheck(svc, e.peer, &e.msg)
		switch {
		case err == nil:
			delete(m.admitKeys, dk)
			m.Stats.AdmitReleased++
			m.event("admit_release", e.peer, e.msg.qpn, 0)
			if e.msg.kind == kindResume {
				m.resumeConn(t, e.peer, &e.msg)
			} else {
				m.acceptConn(t, e.peer, &e.msg, svc)
			}
		case errors.Is(err, ErrAdmitQueue):
			if now-e.at > m.cfg.AdmitQueueTimeout {
				delete(m.admitKeys, dk)
				m.Stats.AdmitTimeouts++
				m.reject(t, e.peer, &e.msg, "admission queue timeout")
			} else {
				kept = append(kept, e)
			}
		default:
			delete(m.admitKeys, dk)
			m.reject(t, e.peer, &e.msg, err.Error())
		}
	}
	m.admitQueue = kept
}

// onDisconnect retires an active inbound connection: a graceful one parks
// in the server cache (and may Resume), anything else tears down.
func (m *Manager) onDisconnect(t *host.Thread, peer int, msg *wireMsg) {
	sc := m.conns[msg.qpn]
	if sc == nil || sc.peer != peer {
		return
	}
	delete(m.conns, msg.qpn)
	delete(m.dups, dupKey{sc.peer, sc.clientQPN})
	svc := m.services[sc.svc]
	if msg.flag == 1 && sc.qp.Err() == nil {
		if svc != nil {
			svc.Closed(peer, sc.handle, CloseLeave)
		}
		m.srvCache[sc.qp.QPN] = &srvCacheEntry{
			peer: sc.peer, svc: sc.svc, qp: sc.qp, handle: sc.handle,
			clientQPN: sc.clientQPN, parkedAt: t.P.Now(),
		}
		m.Stats.Leaves++
		m.event("leave", peer, sc.qp.QPN, sc.handle)
		m.enforceSrvCap()
		return
	}
	if svc != nil {
		svc.Closed(peer, sc.handle, CloseTeardown)
	}
	m.h.NIC.DestroyQP(sc.qp)
	m.event("teardown", peer, sc.qp.QPN, sc.handle)
}

// enforceSrvCap LRU-evicts parked inbound connections beyond the cap.
func (m *Manager) enforceSrvCap() {
	for len(m.srvCache) > m.cfg.CacheCap {
		qpn := m.oldestSrvEntry()
		ent := m.srvCache[qpn]
		delete(m.srvCache, qpn)
		if svc := m.services[ent.svc]; svc != nil {
			svc.Closed(ent.peer, ent.handle, CloseTeardown)
		}
		m.h.NIC.DestroyQP(ent.qp)
		m.Stats.CapEvictions++
		m.event("cap_evict", ent.peer, qpn, ent.handle)
	}
}

// oldestSrvEntry picks the LRU victim deterministically (oldest parkedAt,
// lowest QPN on ties).
func (m *Manager) oldestSrvEntry() uint32 {
	var victim uint32
	first := true
	for qpn, ent := range m.srvCache {
		if first || ent.parkedAt < m.srvCache[victim].parkedAt ||
			(ent.parkedAt == m.srvCache[victim].parkedAt && qpn < victim) {
			victim = qpn
			first = false
		}
	}
	return victim
}

// sweep is the periodic housekeeping pass: keepalives out, lease expiry,
// QP-error eviction, and cache aging. All map walks iterate in sorted key
// order so the event log is deterministic.
func (m *Manager) sweep(t *host.Thread) {
	now := t.P.Now()

	// Aggregated keepalives: one per peer that has at least one active
	// outbound connection, every leaseInterval.
	peerSet := map[int]bool{}
	for _, c := range m.cliActive {
		peerSet[c.peer] = true
	}
	for _, peer := range sortedKeys(peerSet) {
		if now-m.lastKA[peer] >= leaseInterval {
			m.lastKA[peer] = now
			m.Stats.KeepalivesTx++
			m.send(t, peer, &wireMsg{kind: kindKeepalive})
		}
	}

	// Advance the adaptive detector's ladder (no-op in fixed-TTL mode)
	// before expiry so a peer crossing the eviction rung this sweep loses
	// its connections this sweep.
	m.detectorSweep(t, now)

	// Inbound lease expiry and QP-error eviction. falseCounted dedups the
	// per-peer false-eviction accounting across a peer's connections.
	var falseCounted map[int]bool
	for _, qpn := range sortedKeys(m.conns) {
		sc := m.conns[qpn]
		var reason CloseReason
		switch {
		case sc.qp.Err() != nil:
			reason = CloseError
			m.Stats.Evictions++
		case m.peerExpired(sc.peer, now):
			reason = CloseExpired
			m.Stats.LeaseExpiries++
			if m.det == nil && m.groundTruth != nil && !m.groundTruth(sc.peer) && !falseCounted[sc.peer] {
				// Fixed-TTL mode: the detector path counts its own false
				// evictions at the ladder transition.
				if falseCounted == nil {
					falseCounted = make(map[int]bool)
				}
				falseCounted[sc.peer] = true
				m.Stats.FalseEvictions++
			}
		default:
			continue
		}
		delete(m.conns, qpn)
		delete(m.dups, dupKey{sc.peer, sc.clientQPN})
		if svc := m.services[sc.svc]; svc != nil {
			svc.Closed(sc.peer, sc.handle, reason)
		}
		m.h.NIC.DestroyQP(sc.qp)
		if reason == CloseError {
			m.event("evict", sc.peer, qpn, sc.handle)
		} else {
			m.event("expire", sc.peer, qpn, sc.handle)
		}
	}

	// Evicted peers enter quarantine once their connections are gone:
	// rejoin attempts are rejected until a seeded-jitter backoff lapses.
	m.quarantineEvicted(now)

	// Outbound connections whose QP errored: drop tracking (the owning
	// data-plane endpoint observes the error through its own polling).
	for _, qpn := range sortedKeys(m.cliActive) {
		if m.cliActive[qpn].QP.Err() != nil {
			delete(m.cliActive, qpn)
		}
	}

	// Cache aging, both sides.
	for _, qpn := range sortedKeys(m.srvCache) {
		ent := m.srvCache[qpn]
		if now-ent.parkedAt > m.cfg.IdleTimeout || ent.qp.Err() != nil {
			delete(m.srvCache, qpn)
			if svc := m.services[ent.svc]; svc != nil {
				svc.Closed(ent.peer, ent.handle, CloseTeardown)
			}
			m.h.NIC.DestroyQP(ent.qp)
			m.Stats.IdleTeardowns++
			m.event("idle_teardown", ent.peer, qpn, ent.handle)
		}
	}
	for _, key := range sortedCacheKeys(m.cliCache) {
		kept := m.cliCache[key][:0]
		for _, ent := range m.cliCache[key] {
			if now-ent.parkedAt > m.cfg.IdleTimeout || ent.qp.Err() != nil {
				m.h.NIC.DestroyQP(ent.qp)
				m.cliCached--
				m.Stats.IdleTeardowns++
				m.event("idle_teardown", key.peer, ent.qp.QPN, 0)
			} else {
				kept = append(kept, ent)
			}
		}
		if len(kept) == 0 {
			delete(m.cliCache, key)
		} else {
			m.cliCache[key] = kept
		}
	}

	// Admission-queue retries run after expiry/aging so quota freed this
	// sweep is immediately available to parked dials.
	m.drainAdmitQueue(t)

	m.activeGauge = float64(len(m.conns) + len(m.cliActive))
	m.cachedGauge = float64(len(m.srvCache) + m.cliCached)
}

// sortedKeys returns mp's keys in ascending order, so a map walk that logs
// events or draws from an RNG runs the same way on every replay.
func sortedKeys[K cmp.Ordered, V any](mp map[K]V) []K {
	out := make([]K, 0, len(mp))
	for k := range mp {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// sortedCacheKeys is sortedKeys for the client cache: by peer, then service.
func sortedCacheKeys(mp map[cacheKey][]*cliCacheEntry) []cacheKey {
	out := make([]cacheKey, 0, len(mp))
	for k := range mp {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b cacheKey) int {
		return cmp.Or(cmp.Compare(a.peer, b.peer), cmp.Compare(a.svc, b.svc))
	})
	return out
}

func (m *Manager) allocPSN() uint64 {
	m.nextPSN++
	return m.nextPSN
}

func (m *Manager) allocReq() uint64 {
	m.nextReq++
	return uint64(m.h.ID)<<32 | m.nextReq
}

// Conn is the client-side handle of an established connection.
type Conn struct {
	// QP is the connected, RTS client-side queue pair.
	QP *nic.QP
	// Payload is the service's response payload from the accept.
	Payload []byte
	// Cached reports whether the dial was satisfied by resuming a parked
	// connection.
	Cached bool

	mgr       *Manager
	peer      int
	service   string
	remoteQPN uint32
	closed    bool
}

// RemoteQPN returns the server-side QPN of the pair.
func (c *Conn) RemoteQPN() uint32 { return c.remoteQPN }

// Errors returned by Dial.
var (
	ErrDialTimeout = errors.New("ctrlplane: dial timed out")
	ErrNotStarted  = errors.New("ctrlplane: manager not started")
)

// RejectError carries the server's reject reason.
type RejectError struct{ Reason string }

func (e *RejectError) Error() string { return "ctrlplane: rejected: " + e.Reason }

// Dial establishes a connection to the named service on the peer host,
// preferring a parked cached pair (one round trip) and falling back to the
// full cold handshake: CreateQP + INIT/RTR/RTS walk on both sides, QPN/PSN
// exchanged in-band over the bootstrap UD QPs. Blocks the calling thread
// for the whole setup, so the cost lands in virtual time.
func (m *Manager) Dial(t *host.Thread, peer int, service string, payload []byte) (*Conn, error) {
	if !m.started {
		return nil, ErrNotStarted
	}
	start := t.P.Now()
	key := cacheKey{peer, service}
	for len(m.cliCache[key]) > 0 {
		stack := m.cliCache[key]
		ent := stack[len(stack)-1]
		m.cliCache[key] = stack[:len(stack)-1]
		if len(m.cliCache[key]) == 0 {
			delete(m.cliCache, key)
		}
		m.cliCached--
		if ent.qp.Err() != nil {
			m.h.NIC.DestroyQP(ent.qp)
			continue
		}
		c, err := m.dialResume(t, peer, service, ent, payload)
		if err != nil {
			// The cached pair was stale (server side gone); fall back cold.
			break
		}
		m.Stats.CacheHits++
		m.Stats.DialsCached++
		m.cachedHist.Record(int64(t.P.Now() - start))
		return c, nil
	}
	m.Stats.CacheMisses++
	c, err := m.dialCold(t, peer, service, payload)
	if err != nil {
		m.Stats.DialsFailed++
		return nil, err
	}
	m.Stats.DialsCold++
	m.coldHist.Record(int64(t.P.Now() - start))
	return c, nil
}

// awaitReply sends msg and waits for its accept/reject, retrying on
// timeout.
func (m *Manager) awaitReply(t *host.Thread, peer int, msg *wireMsg) (wireMsg, error) {
	w := &dialWait{sig: sim.NewSignal(m.h.Env)}
	m.pending[msg.reqID] = w
	defer delete(m.pending, msg.reqID)
	for attempt := 0; attempt <= m.cfg.DialRetries; attempt++ {
		m.send(t, peer, msg)
		deadline := t.P.Now() + m.cfg.DialTimeout
		for !w.done && t.P.Now() < deadline {
			w.sig.WaitTimeout(t.P, deadline-t.P.Now())
		}
		if w.done {
			return w.resp, nil
		}
	}
	return wireMsg{}, ErrDialTimeout
}

func (m *Manager) dialResume(t *host.Thread, peer int, service string, ent *cliCacheEntry, payload []byte) (*Conn, error) {
	msg := &wireMsg{
		kind: kindResume, reqID: m.allocReq(), qpn: ent.remoteQPN, qpn2: ent.qp.QPN,
		svc: service, payload: payload,
	}
	resp, err := m.awaitReply(t, peer, msg)
	if err != nil {
		m.h.NIC.DestroyQP(ent.qp)
		return nil, err
	}
	if resp.kind == kindReject {
		m.h.NIC.DestroyQP(ent.qp)
		return nil, &RejectError{Reason: resp.reason}
	}
	c := &Conn{
		QP: ent.qp, Payload: resp.payload, Cached: true,
		mgr: m, peer: peer, service: service, remoteQPN: ent.remoteQPN,
	}
	m.cliActive[ent.qp.QPN] = c
	return c, nil
}

func (m *Manager) dialCold(t *host.Thread, peer int, service string, payload []byte) (*Conn, error) {
	ccq := m.h.NIC.CreateCQ()
	qp := t.CreateQP(nic.RC, ccq, ccq)
	if err := t.ModifyQP(qp, nic.QPInit, nic.ModifyAttr{}); err != nil {
		m.h.NIC.DestroyQP(qp)
		return nil, err
	}
	psn := m.allocPSN()
	msg := &wireMsg{kind: kindConnReq, reqID: m.allocReq(), qpn: qp.QPN, psn: psn, svc: service, payload: payload}
	resp, err := m.awaitReply(t, peer, msg)
	if err != nil {
		m.h.NIC.DestroyQP(qp)
		return nil, err
	}
	if resp.kind == kindReject {
		m.h.NIC.DestroyQP(qp)
		return nil, &RejectError{Reason: resp.reason}
	}
	if err := t.ModifyQP(qp, nic.QPRTR, nic.ModifyAttr{
		RemoteNIC: peer, RemoteQPN: resp.qpn, RemotePSN: resp.psn,
	}); err != nil {
		m.h.NIC.DestroyQP(qp)
		return nil, err
	}
	if err := t.ModifyQP(qp, nic.QPRTS, nic.ModifyAttr{LocalPSN: psn}); err != nil {
		m.h.NIC.DestroyQP(qp)
		return nil, err
	}
	m.send(t, peer, &wireMsg{kind: kindReady, qpn: resp.qpn})
	c := &Conn{
		QP: qp, Payload: resp.payload,
		mgr: m, peer: peer, service: service, remoteQPN: resp.qpn,
	}
	m.cliActive[qp.QPN] = c
	return c, nil
}

// walkToRTS runs the server-side INIT/RTR/RTS transitions for an inbound
// connect, charging each ModifyQP verb on the manager thread.
func (m *Manager) walkToRTS(t *host.Thread, qp *nic.QP, peer int, remoteQPN uint32, remotePSN, localPSN uint64) error {
	if err := t.ModifyQP(qp, nic.QPInit, nic.ModifyAttr{}); err != nil {
		return err
	}
	if err := t.ModifyQP(qp, nic.QPRTR, nic.ModifyAttr{
		RemoteNIC: peer, RemoteQPN: remoteQPN, RemotePSN: remotePSN,
	}); err != nil {
		return err
	}
	return t.ModifyQP(qp, nic.QPRTS, nic.ModifyAttr{LocalPSN: localPSN})
}

// Close gracefully leaves the connection: a disconnect notice parks the
// server half, and the client half parks locally, so a later Dial to the
// same (peer, service) resumes the pair without QP setup. The QP stays
// RTS while parked; the manager's sweep ages it out.
func (c *Conn) Close(t *host.Thread) {
	if c.closed {
		return
	}
	c.closed = true
	m := c.mgr
	delete(m.cliActive, c.QP.QPN)
	m.send(t, c.peer, &wireMsg{kind: kindDisconnect, qpn: c.remoteQPN, flag: 1})
	if c.QP.Err() != nil {
		m.h.NIC.DestroyQP(c.QP)
		return
	}
	key := cacheKey{c.peer, c.service}
	m.cliCache[key] = append(m.cliCache[key], &cliCacheEntry{
		qp: c.QP, remoteQPN: c.remoteQPN, parkedAt: t.P.Now(),
	})
	m.cliCached++
	for m.cliCached > m.cfg.CacheCap {
		m.evictOldestCliEntry()
	}
}

// evictOldestCliEntry drops the LRU parked outbound connection
// (deterministic: oldest parkedAt, then lowest QPN).
func (m *Manager) evictOldestCliEntry() {
	var vKey cacheKey
	vIdx := -1
	for _, key := range sortedCacheKeys(m.cliCache) {
		for i, ent := range m.cliCache[key] {
			if vIdx < 0 || ent.parkedAt < m.cliCache[vKey][vIdx].parkedAt ||
				(ent.parkedAt == m.cliCache[vKey][vIdx].parkedAt && ent.qp.QPN < m.cliCache[vKey][vIdx].qp.QPN) {
				vKey, vIdx = key, i
			}
		}
	}
	if vIdx < 0 {
		return
	}
	ent := m.cliCache[vKey][vIdx]
	m.cliCache[vKey] = append(m.cliCache[vKey][:vIdx], m.cliCache[vKey][vIdx+1:]...)
	if len(m.cliCache[vKey]) == 0 {
		delete(m.cliCache, vKey)
	}
	m.cliCached--
	m.h.NIC.DestroyQP(ent.qp)
	m.Stats.CapEvictions++
	m.event("cap_evict", vKey.peer, ent.qp.QPN, 0)
}

// ActiveConns returns the number of active inbound connections (tests).
func (m *Manager) ActiveConns() int { return len(m.conns) }

// CachedConns returns the number of parked inbound connections (tests).
func (m *Manager) CachedConns() int { return len(m.srvCache) }
