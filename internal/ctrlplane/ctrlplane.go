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
	"sort"

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

	cacheCap                 = 256       // max parked connections per side
	idleTimeout sim.Duration = 5_000_000 // parked connections older than this tear down
)

// Config holds the manager parameters.
type Config struct {
	RecvDepth int          // bootstrap UD receive window
	LeaseTTL  sim.Duration // silence after which a peer's conns expire

	DialTimeout sim.Duration // per-attempt handshake reply timeout
	DialRetries int          // resends before a dial fails

	// Adaptive replaces fixed-TTL lease expiry with the phi-accrual
	// detector and its degradation ladder (see detector.go). LeaseTTL
	// stays as the safety net for peers without enough arrival history.
	// False keeps the fixed-TTL behaviour byte-identical.
	Adaptive bool
}

// DefaultConfig returns the standard control-plane timing parameters.
func DefaultConfig() Config {
	return Config{
		RecvDepth:   128,
		LeaseTTL:    400_000,
		DialTimeout: 200_000,
		DialRetries: 3,
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

// Gatekeeper is an optional extension a Service implements to screen dials
// before any QP is created: admission control. PreAdmit sees the connect
// (or resume) request's opaque payload and returns nil to proceed or an
// error to reject with that reason. PreAdmit must be side-effect free —
// Accept/Resume still runs afterwards as the authoritative admission.
type Gatekeeper interface {
	PreAdmit(peer int, service string, payload []byte) error
}

// Event is one entry of the manager's connection event log. The log is the
// determinism surface: a fixed seed must reproduce it exactly. Kind is one
// of accept, resume, reject, leave, teardown, cap_evict, expire, evict and
// idle_teardown from the connection lifecycle, or suspect, demote,
// det_evict, quarantine, readmit and restore from the adaptive detector's
// ladder.
type Event struct {
	At     sim.Time
	Kind   string
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

// serverConn is an inbound connection. It is active while it sits in the
// manager's conns map and parked — a graceful leave kept its still-paired
// QP for a later resume — from parkedAt on, while it sits in parked.
type serverConn struct {
	peer      int
	svc       string
	qp        *nic.QP
	handle    uint64
	clientQPN uint32
	acceptMsg wireMsg // replayed on duplicate connect requests
	parkedAt  sim.Time
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
	DialsCold     uint64 `json:"dials_cold"`
	DialsCached   uint64 `json:"dials_cached"`
	DialsFailed   uint64 `json:"dials_failed"`
	Accepts       uint64 `json:"accepts"`
	Resumes       uint64 `json:"resumes"`
	Rejects       uint64 `json:"rejects"`
	Leaves        uint64 `json:"leaves"`
	LeaseExpiries uint64 `json:"lease_expiries"`
	Evictions     uint64 `json:"evictions"` // QP-error evictions
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	IdleTeardowns uint64 `json:"idle_teardowns"`
	CapEvictions  uint64 `json:"cap_evictions"`
	KeepalivesTx  uint64 `json:"keepalives_tx"`
	KeepalivesRx  uint64 `json:"keepalives_rx"`

	// Failure-detector counters (detector.*). Suspicions/Demotions count
	// ladder escalations; DetectorEvictions counts peers the adaptive
	// detector declared dead; FalseEvictions counts lease/detector
	// evictions of peers the registered ground truth says were alive
	// (counted in fixed-TTL mode too, so the two modes are comparable);
	// Readmits counts quarantined peers admitted back; Probes and PingsRx
	// count detector pings sent and received.
	DetectorSuspicions uint64 `json:"detector_suspicions"`
	DetectorDemotions  uint64 `json:"detector_demotions"`
	DetectorEvictions  uint64 `json:"detector_evictions"`
	FalseEvictions     uint64 `json:"false_evictions"`
	DetectorReadmits   uint64 `json:"detector_readmits"`
	DetectorProbes     uint64 `json:"detector_probes"`
	PingsRx            uint64 `json:"pings_rx"`
}

const sendRing = 32

// Manager is the per-host connection manager: it serves the handshake for
// inbound connections, dials outbound ones, and sweeps leases and caches.
type Manager struct {
	h   *host.Host
	cfg Config
	dir *Directory
	// The connection-cache bounds: cacheCap and idleTimeout, except where
	// a test shrinks them (export_test.go).
	cacheCap    int
	idleTimeout sim.Duration

	udQP    *nic.QP
	cq      *nic.CQ
	recvReg *memory.Region
	sendReg *memory.Region
	sendIdx int

	services map[string]Service

	nextReq uint64
	nextPSN uint64
	pending map[uint64]*dialWait

	conns  map[uint32]*serverConn // active inbound, by server QPN
	parked map[uint32]*serverConn // parked inbound, by server QPN
	dups   map[dupKey]uint32      // connect-request dedup → server QPN

	cliActive map[uint32]*Conn // active outbound, by client QPN
	// cliParked holds the closed outbound connections whose QP stays
	// paired, sorted by (peer, service) and in park order within each such
	// run: Dial resumes the last of a run, and the slice order is the
	// sweep's deterministic walk.
	cliParked []*Conn

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
		h:           h,
		cfg:         cfg,
		dir:         dir,
		cacheCap:    cacheCap,
		idleTimeout: idleTimeout,
		udQP:        h.NIC.CreateQP(nic.UD, cq, cq),
		cq:          cq,
		recvReg:     h.Mem.Register(cfg.RecvDepth*slotBytes, memory.PageSize2M, memory.LocalWrite),
		sendReg:     h.Mem.Register(sendRing*slotBytes, memory.PageSize2M, memory.LocalWrite),
		services:    make(map[string]Service),
		nextPSN:     uint64(h.ID)*1_000_000 + 1,
		pending:     make(map[uint64]*dialWait),
		conns:       make(map[uint32]*serverConn),
		parked:      make(map[uint32]*serverConn),
		dups:        make(map[dupKey]uint32),
		cliActive:   make(map[uint32]*Conn),
		leases:      make(map[int]sim.Time),
		lastKA:      make(map[int]sim.Time),
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

// LeaseLapsed reports whether peer's lease has run out: a keepalive (or
// handshake) from it was observed once, and none within Config.LeaseTTL
// since. Every keepalive refreshes the lease whatever the detector mode, so
// a subsystem above the control plane can ask it instead of running its
// own heartbeat protocol.
func (m *Manager) LeaseLapsed(peer int) bool {
	at, ok := m.leases[peer]
	return ok && m.h.Env.Now()-at > m.cfg.LeaseTTL
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
	var buf [slotBytes]byte
	n := msg.encode(buf[:])
	_, _ = m.sendReg.WriteAt(buf[:n], int64(off)) // a slot of the send ring
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
		var buf [slotBytes]byte
		_, _ = m.recvReg.ReadAt(buf[:e.ByteLen], int64(slot*slotBytes)) // the SEND fit its slot
		msg, err = decodeMsg(buf[:e.ByteLen])
	}
	m.udQP.PostRecv(nic.RecvWR{WRID: e.WRID, LKey: m.recvReg.LKey, LAddr: addr, Len: slotBytes})
	if e.Status != nic.CQOK || err != nil {
		return
	}
	t.Work(t.Host.Cfg.BaseOpCost)
	switch msg.kind {
	case kindConnReq, kindResume:
		m.onDial(t, e.SrcNIC, &msg)
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
		if sc := m.conns[msg.qpn]; sc != nil && sc.peer == e.SrcNIC {
			m.onDisconnect(sc, msg.flag == 1)
		}
	}
}

// onDial serves a connect or resume request off the wire. A connect that
// repeats an accepted one is answered by replaying the accept. Everything
// else passes the quarantine gate, then the service's Gatekeeper, if it has
// one: an error rejects the dial, and a clear gate activates the
// connection.
func (m *Manager) onDial(t *host.Thread, peer int, msg *wireMsg) {
	if msg.kind == kindConnReq {
		if qpn, ok := m.dups[dupKey{peer, msg.qpn}]; ok {
			if sc := m.conns[qpn]; sc != nil {
				// Our accept was lost or slow: replay it.
				replay := sc.acceptMsg
				m.send(t, peer, &replay)
			}
			return
		}
	}
	if m.quarantineReject(t, peer, msg) {
		return
	}
	svc := m.services[msg.svc]
	if gk, ok := svc.(Gatekeeper); ok {
		if err := gk.PreAdmit(peer, msg.svc, msg.payload); err != nil {
			m.reject(t, peer, msg, err.Error())
			return
		}
	}
	m.activate(t, peer, msg, svc)
}

// activate turns an admitted dial into an active inbound connection. A
// connect builds a fresh QP, climbs it to RTS against the client's QPN and
// PSN and asks the service to Accept; a resume takes the parked pair it
// names out of the cache and asks the service to Resume. A refusal destroys
// the QP and rejects; success records the connection, renews the peer's
// lease and sends the accept.
func (m *Manager) activate(t *host.Thread, peer int, msg *wireMsg, svc Service) {
	var (
		sc   *serverConn
		psn  uint64
		resp []byte
		err  error
	)
	resume := msg.kind == kindResume
	if resume {
		sc = m.parked[msg.qpn]
		if sc == nil || sc.peer != peer || sc.svc != msg.svc ||
			sc.clientQPN != msg.qpn2 || sc.qp.Err() != nil {
			m.reject(t, peer, msg, "not cached")
			return
		}
		delete(m.parked, msg.qpn)
		resp, sc.handle, err = svc.Resume(t, peer, sc.qp, msg.payload, sc.handle)
	} else {
		if svc == nil {
			m.reject(t, peer, msg, "unknown service "+msg.svc)
			return
		}
		cq := m.h.NIC.CreateCQ()
		sc = &serverConn{peer: peer, svc: msg.svc, qp: t.CreateQP(nic.RC, cq, cq), clientQPN: msg.qpn}
		psn = m.allocPSN()
		err = climb(t, sc.qp, nic.QPRTS, nic.ModifyAttr{
			RemoteNIC: peer, RemoteQPN: msg.qpn, RemotePSN: msg.psn, LocalPSN: psn,
		})
		if err == nil {
			resp, sc.handle, err = svc.Accept(t, peer, sc.qp, msg.payload)
		}
	}
	if err != nil {
		m.h.NIC.DestroyQP(sc.qp)
		m.reject(t, peer, msg, err.Error())
		return
	}
	sc.acceptMsg = wireMsg{kind: kindAccept, reqID: msg.reqID, qpn: sc.qp.QPN, psn: psn, payload: resp}
	kind := "accept"
	if resume {
		sc.acceptMsg.flag = 1
		kind = "resume"
		m.Stats.Resumes++
	} else {
		m.Stats.Accepts++
	}
	m.conns[sc.qp.QPN] = sc
	m.dups[dupKey{peer, sc.clientQPN}] = sc.qp.QPN
	m.leases[peer] = t.P.Now()
	m.detArrival(peer, t.P.Now())
	m.event(kind, peer, sc.qp.QPN, sc.handle)
	reply := sc.acceptMsg
	m.send(t, peer, &reply)
}

func (m *Manager) reject(t *host.Thread, peer int, msg *wireMsg, reason string) {
	m.Stats.Rejects++
	m.event("reject", peer, msg.qpn, 0)
	m.send(t, peer, &wireMsg{kind: kindReject, reqID: msg.reqID, reason: reason})
}

// onDisconnect ends an active inbound connection: a graceful leave whose QP
// is healthy parks it in the server cache (and may Resume), anything else
// tears it down.
func (m *Manager) onDisconnect(sc *serverConn, graceful bool) {
	if !graceful || sc.qp.Err() != nil {
		m.retire(sc, CloseTeardown, "teardown")
		return
	}
	m.Stats.Leaves++
	m.retire(sc, CloseLeave, "leave")
	for len(m.parked) > m.cacheCap {
		var victim *serverConn
		for _, p := range m.parked {
			if victim == nil || evictsBefore(p.parkedAt, p.qp.QPN, victim.parkedAt, victim.qp.QPN) {
				victim = p
			}
		}
		m.Stats.CapEvictions++
		m.retire(victim, CloseTeardown, "cap_evict")
	}
}

// retire is the one exit of an inbound connection, active or parked: it
// drops the manager's record of it, tells the service why, parks the
// still-paired QP on CloseLeave and destroys it otherwise, and logs kind.
func (m *Manager) retire(sc *serverConn, why CloseReason, kind string) {
	delete(m.conns, sc.qp.QPN)
	delete(m.parked, sc.qp.QPN)
	delete(m.dups, dupKey{sc.peer, sc.clientQPN})
	if svc := m.services[sc.svc]; svc != nil {
		svc.Closed(sc.peer, sc.handle, why)
	}
	if why == CloseLeave {
		sc.parkedAt = m.h.Env.Now()
		m.parked[sc.qp.QPN] = sc
	} else {
		m.h.NIC.DestroyQP(sc.qp)
	}
	m.event(kind, sc.peer, sc.qp.QPN, sc.handle)
}

// evictsBefore is the LRU rule of both connection caches: the parked
// connection with the least parkedAt goes first, the lower QPN on a tie.
func evictsBefore(at sim.Time, qpn uint32, than sim.Time, thanQPN uint32) bool {
	return at < than || at == than && qpn < thanQPN
}

// idle reports whether a parked QP is due for teardown: older than
// the idle timeout, or broken.
func (m *Manager) idle(parkedAt sim.Time, qp *nic.QP, now sim.Time) bool {
	return now-parkedAt > m.idleTimeout || qp.Err() != nil
}

// sweep is the periodic housekeeping pass: keepalives out, lease expiry,
// QP-error eviction, and cache aging. Server-side walks go in QPN order and
// client-side ones in cliParked order, so the event log is deterministic.
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
		switch {
		case sc.qp.Err() != nil:
			m.Stats.Evictions++
			m.retire(sc, CloseError, "evict")
		case m.peerExpired(sc.peer, now):
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
			m.retire(sc, CloseExpired, "expire")
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
	for _, qpn := range sortedKeys(m.parked) {
		if sc := m.parked[qpn]; m.idle(sc.parkedAt, sc.qp, now) {
			m.Stats.IdleTeardowns++
			m.retire(sc, CloseTeardown, "idle_teardown")
		}
	}
	for i := 0; i < len(m.cliParked); {
		if c := m.cliParked[i]; m.idle(c.parkedAt, c.QP, now) {
			m.Stats.IdleTeardowns++
			m.dropParked(i, "idle_teardown")
		} else {
			i++
		}
	}

	m.activeGauge = float64(len(m.conns) + len(m.cliActive))
	m.cachedGauge = float64(len(m.parked) + len(m.cliParked))
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

func (m *Manager) allocPSN() uint64 {
	m.nextPSN++
	return m.nextPSN
}

func (m *Manager) allocReq() uint64 {
	m.nextReq++
	return uint64(m.h.ID)<<32 | m.nextReq
}

// climb walks qp up the RESET→INIT→RTR→RTS ladder from its current rung to
// to, charging each ModifyQP verb on t — the one ladder both halves of a
// cold connection climb. attr carries the RTR pairing and the RTS send PSN;
// each rung reads only its own fields.
func climb(t *host.Thread, qp *nic.QP, to nic.QPState, attr nic.ModifyAttr) error {
	for s := qp.State() + 1; s <= to; s++ {
		if err := t.ModifyQP(qp, s, attr); err != nil {
			return err
		}
	}
	return nil
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
	parkedAt  sim.Time // set when Close parks the pair in the client cache
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
	for {
		i := m.runEnd(peer, service) - 1
		if i < 0 || m.cliParked[i].peer != peer || m.cliParked[i].service != service {
			break
		}
		parked := m.cliParked[i]
		m.cliParked = slices.Delete(m.cliParked, i, i+1)
		if parked.QP.Err() != nil {
			m.h.NIC.DestroyQP(parked.QP)
			continue
		}
		c, err := m.dialResume(t, parked, payload)
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

// awaitReply sends msg and waits for its accept, retrying on timeout. A
// reject comes back as a RejectError.
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
			if w.resp.kind == kindReject {
				return wireMsg{}, &RejectError{Reason: w.resp.reason}
			}
			return w.resp, nil
		}
	}
	return wireMsg{}, ErrDialTimeout
}

// dialResume asks the server to reactivate a parked pair: one round trip,
// no QP work.
func (m *Manager) dialResume(t *host.Thread, parked *Conn, payload []byte) (*Conn, error) {
	resp, err := m.awaitReply(t, parked.peer, &wireMsg{
		kind: kindResume, reqID: m.allocReq(), qpn: parked.remoteQPN, qpn2: parked.QP.QPN,
		svc: parked.service, payload: payload,
	})
	return m.connected(parked.QP, parked.peer, parked.service, resp, err)
}

// dialCold runs the full handshake: a fresh QP climbs to INIT, the connect
// request carries its QPN and PSN, and the accept's QPN and PSN take it
// through RTR to RTS.
func (m *Manager) dialCold(t *host.Thread, peer int, service string, payload []byte) (*Conn, error) {
	cq := m.h.NIC.CreateCQ()
	qp := t.CreateQP(nic.RC, cq, cq)
	var resp wireMsg
	err := climb(t, qp, nic.QPInit, nic.ModifyAttr{})
	if err == nil {
		psn := m.allocPSN()
		resp, err = m.awaitReply(t, peer, &wireMsg{
			kind: kindConnReq, reqID: m.allocReq(), qpn: qp.QPN, psn: psn, svc: service, payload: payload,
		})
		if err == nil {
			err = climb(t, qp, nic.QPRTS, nic.ModifyAttr{
				RemoteNIC: peer, RemoteQPN: resp.qpn, RemotePSN: resp.psn, LocalPSN: psn,
			})
		}
		if err == nil {
			m.send(t, peer, &wireMsg{kind: kindReady, qpn: resp.qpn})
		}
	}
	return m.connected(qp, peer, service, resp, err)
}

// connected ends a dial attempt: a failed one destroys the client half, a
// successful one becomes a tracked Conn (Cached when the accept says the
// pair was resumed).
func (m *Manager) connected(qp *nic.QP, peer int, service string, resp wireMsg, err error) (*Conn, error) {
	if err != nil {
		m.h.NIC.DestroyQP(qp)
		return nil, err
	}
	c := &Conn{
		QP: qp, Payload: resp.payload, Cached: resp.flag == 1,
		mgr: m, peer: peer, service: service, remoteQPN: resp.qpn,
	}
	m.cliActive[qp.QPN] = c
	return c, nil
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
	c.parkedAt = t.P.Now()
	m.cliParked = slices.Insert(m.cliParked, m.runEnd(c.peer, c.service), c)
	for len(m.cliParked) > m.cacheCap {
		victim := 0
		for i, p := range m.cliParked {
			if v := m.cliParked[victim]; evictsBefore(p.parkedAt, p.QP.QPN, v.parkedAt, v.QP.QPN) {
				victim = i
			}
		}
		m.Stats.CapEvictions++
		m.dropParked(victim, "cap_evict")
	}
}

// runEnd returns the index just past the (peer, service) run of cliParked:
// where that pair's next park goes, one past the park Dial resumes.
func (m *Manager) runEnd(peer int, service string) int {
	return sort.Search(len(m.cliParked), func(i int) bool {
		c := m.cliParked[i]
		return cmp.Or(cmp.Compare(c.peer, peer), cmp.Compare(c.service, service)) > 0
	})
}

// dropParked is the one exit of a parked outbound connection the cache
// discards (idle timeout or capacity): the QP is destroyed and kind logged.
func (m *Manager) dropParked(i int, kind string) {
	c := m.cliParked[i]
	m.cliParked = slices.Delete(m.cliParked, i, i+1)
	m.h.NIC.DestroyQP(c.QP)
	m.event(kind, c.peer, c.QP.QPN, 0)
}
