// Elastic membership: ScaleRPC admission over the connection control
// plane. A server binds itself to its host's ctrlplane.Manager under
// ServiceName; clients then Join through the in-band, costed handshake
// instead of the zero-cost Connect backdoor, Leave gracefully (the QP pair
// parks in the connection cache, the id stays reserved), and Rejoin —
// resuming from the cache when possible, falling back to a cold handshake
// (with a fresh id and a ClientID restamp of staged requests) when the
// cache evicted or the lease expired. Group membership regroups lazily at
// the next context switch; in-flight slices are never disturbed.
package scalerpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// ServiceName is the control-plane service a ScaleRPC server registers.
const ServiceName = "scalerpc"

// Join request payload: respAddr u64 | respRKey u32 | stageAddr u64 |
// stageRKey u32 | pinned u8 | tenant u16 — the region exchange that
// Connect performs out of band, carried in the connect-request instead,
// plus the tenant identity the admission gate and fair scheduler key on.
const joinReqSize = 8 + 4 + 8 + 4 + 1 + 2

// Join/resume response payload: id u16 | pinnedGranted u8 | zone i16.
const joinRespSize = 2 + 1 + 2

// ErrNotManaged is returned by Rejoin on a connection that was admitted
// through the legacy Connect backdoor rather than the control plane.
var ErrNotManaged = errors.New("scalerpc: connection not admitted through the control plane")

// BindControlPlane registers this server with its host's control-plane
// manager so clients can Join in-band, and subscribes to the manager's
// failure-detector ladder: a demoted peer's clients are isolated into
// suspect groups (probes suppressed, service continues) and restored when
// the peer clears. Eviction needs no hook — the manager's expiry sweep
// tears the connection down through the normal Closed path.
func (s *Server) BindControlPlane(m *ctrlplane.Manager) {
	if m.Host() != s.Host {
		panic("scalerpc: control-plane manager runs on a different host")
	}
	m.RegisterService(ServiceName, &ctrlAdapter{s: s, m: m})
	m.OnPeerState(func(peer int, old, new ctrlplane.PeerState) {
		switch new {
		case ctrlplane.PeerDemoted:
			s.DemotePeer(peer)
		case ctrlplane.PeerHealthy:
			s.RestorePeer(peer)
		}
	})
}

// ctrlAdapter implements ctrlplane.Service (and ctrlplane.Gatekeeper) for
// a ScaleRPC server.
type ctrlAdapter struct {
	s *Server
	m *ctrlplane.Manager
}

// PreAdmit screens a dial before the control plane builds any QP state:
// with a tenant authority installed, an over-quota tenant's dial is queued
// (ctrlplane.ErrAdmitQueue) or rejected here, before the handshake spends
// a single ModifyQP. Side-effect free; Accept/Resume re-run the decision
// authoritatively.
func (a *ctrlAdapter) PreAdmit(peer int, service string, payload []byte) error {
	s := a.s
	if s.tenantAuth == nil || len(payload) != joinReqSize {
		return nil
	}
	_, err := s.tenantAuth.AdmitConn(binary.LittleEndian.Uint16(payload[25:]), payload[24] != 0)
	return err
}

// Accept admits a new client: allocate an id (reusing ids released by
// lease expiry or cache teardown), record its regions, and place it in a
// group — or on a reserved zone when it asks for latency sensitivity and
// one is free. A cold rejoin — same regions, but the cached pair is gone —
// reclaims the still-parked identity instead of allocating a fresh id.
// The handle is id+1 so a zero handle is never valid.
func (a *ctrlAdapter) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	s := a.s
	if len(payload) != joinReqSize {
		return nil, 0, fmt.Errorf("scalerpc: join payload is %d bytes, want %d", len(payload), joinReqSize)
	}
	tenant := binary.LittleEndian.Uint16(payload[25:])
	pinReq := payload[24] != 0
	if s.tenantAuth != nil {
		granted, err := s.tenantAuth.AdmitConn(tenant, pinReq)
		if err != nil {
			return nil, 0, err
		}
		pinReq = granted
	}
	if cs := s.findParked(peer, payload); cs != nil {
		// The tenant and peer identity must be set before rebind places the
		// client: class-pure grouping and suspect isolation both read the
		// joining client's state at placement.
		cs.tenant = tenant
		a.stamp(cs, peer)
		a.rebind(t, cs, qp, pinReq)
		s.tenantOpen(cs)
		return joinResp(cs), uint64(cs.id) + 1, nil
	}
	id, err := s.allocID()
	if err != nil {
		return nil, 0, err
	}
	cs := &clientState{
		id:        id,
		qp:        qp,
		respAddr:  binary.LittleEndian.Uint64(payload),
		respRKey:  binary.LittleEndian.Uint32(payload[8:]),
		stageAddr: binary.LittleEndian.Uint64(payload[12:]),
		stageRKey: binary.LittleEndian.Uint32(payload[20:]),
		zone:      -1,
		warmZone:  -1,
		tenant:    tenant,
	}
	a.stamp(cs, peer)
	if int(id) == len(s.clients) {
		s.clients = append(s.clients, cs)
	} else {
		s.clients[id] = cs
	}
	a.placeJoined(cs, pinReq)
	s.tenantOpen(cs)
	s.Stats.Joins++
	if s.trace.Enabled {
		s.trace.Emit(t.P.Now(), "client_join", telemetry.A("client", int64(id)))
	}
	return joinResp(cs), uint64(id) + 1, nil
}

// Resume reactivates a parked client from the connection cache. Cached
// pairs are fungible across clients of the same service, so the caller is
// identified by its region payload — not by the handle recorded when the
// pair parked, which may belong to a different client whose pair was
// consumed by an earlier resume. The matched client's id becomes the
// connection's new handle.
func (a *ctrlAdapter) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	s := a.s
	cs := s.findParked(peer, payload)
	if cs == nil {
		return nil, 0, errors.New("scalerpc: no parked client matches the resume payload")
	}
	pinReq := cs.pinned
	if s.tenantAuth != nil {
		granted, err := s.tenantAuth.AdmitConn(cs.tenant, pinReq)
		if err != nil {
			return nil, 0, err
		}
		pinReq = granted
	}
	a.stamp(cs, peer)
	a.rebind(t, cs, qp, pinReq)
	s.tenantOpen(cs)
	return joinResp(cs), uint64(cs.id) + 1, nil
}

// stamp records the dialing peer on a (re)admitted client and inherits the
// peer's current detector state, so a client joining from an
// already-demoted peer lands in a suspect group rather than a healthy one.
func (a *ctrlAdapter) stamp(cs *clientState, peer int) {
	cs.peerHost = peer
	cs.demoted = a.m.PeerStateOf(peer) == ctrlplane.PeerDemoted
}

// rebind reactivates a parked client on the given (possibly different)
// QP and places it back into the scheduler.
func (a *ctrlAdapter) rebind(t *host.Thread, cs *clientState, qp *nic.QP, pinned bool) {
	s := a.s
	if !cs.parked && !cs.limbo {
		// The client dialed back in before the server noticed its dead
		// pair: retire the stale activation in place so the rebind below
		// is not a double placement. The errored pair's eventual Closed
		// sweep finds an already-rebound client and stands down.
		s.tenantClose(cs)
		s.unplace(cs)
	}
	cs.parked = false
	if cs.limbo {
		cs.limbo = false
		for i, id := range s.limbo {
			if id == cs.id {
				s.limbo = append(s.limbo[:i], s.limbo[i+1:]...)
				break
			}
		}
	}
	cs.qp = qp
	cs.fetchedUpTo = 0
	cs.missedSlices = 0
	a.placeJoined(cs, pinned)
	s.Stats.Joins++
	if s.trace.Enabled {
		s.trace.Emit(t.P.Now(), "client_rejoin", telemetry.A("client", int64(cs.id)))
	}
}

// findParked returns the parked or quarantined client whose registered
// peer and registered regions match the dial, scanning in id order for
// determinism. Peer and regions together are the durable identity: a
// crash-recovered client dialing cold presents the same regions from the
// same host and reclaims its id (and dedup window). The regions alone are
// not enough — every host's memory registry starts at the same address and
// key, so clients on two hosts present identical tuples.
// An *active* client whose QP has errored matches too: a client that
// re-dials before the server's sweep notices the dead pair is the same
// client, and handing it a fresh id would silently drop its dedup window
// — the retried in-flight request would re-execute.
func (s *Server) findParked(peer int, payload []byte) *clientState {
	if len(payload) != joinReqSize {
		return nil
	}
	respAddr := binary.LittleEndian.Uint64(payload)
	respRKey := binary.LittleEndian.Uint32(payload[8:])
	stageAddr := binary.LittleEndian.Uint64(payload[12:])
	stageRKey := binary.LittleEndian.Uint32(payload[20:])
	for _, cs := range s.clients {
		if cs == nil || cs.peerHost != peer || cs.respAddr != respAddr || cs.respRKey != respRKey ||
			cs.stageAddr != stageAddr || cs.stageRKey != stageRKey {
			continue
		}
		if cs.parked || cs.limbo || (cs.qp != nil && cs.qp.Err() != nil) {
			return cs
		}
	}
	return nil
}

// limboCap bounds the identity quarantine: at most this many ungracefully
// departed ids wait for their client to return before the oldest is
// released for real.
const limboCap = 64

// Closed handles every departure. A graceful leave parks the client: it
// drops out of its group (taking effect at the next switch) but keeps its
// id and regions so a later Resume is cheap. Every other reason — lease
// expiry, QP error, cache eviction of a parked entry — quarantines the
// identity: the id and the reply cache's dedup window stay reserved so a
// crash-recovered client that dials back in (cold, matched by its regions)
// resumes exactly-once execution across the outage. The quarantine is
// FIFO-bounded; overflow releases the oldest identity and drops its dedup
// state, after which a returning client starts a fresh reqID space.
func (a *ctrlAdapter) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {
	s := a.s
	cs := s.lookupHandle(handle)
	if cs == nil {
		return
	}
	if reason == ctrlplane.CloseLeave {
		s.tenantClose(cs)
		s.unplace(cs)
		cs.parked = true
		s.Stats.Leaves++
		return
	}
	if cs.limbo {
		// Another stale pair of an already-quarantined identity went away.
		return
	}
	if reason == ctrlplane.CloseError && cs.qp.Err() == nil {
		// The errored pair is an orphan: the client already rebound onto a
		// fresh QP before the sweep got to the dead one.
		return
	}
	if reason == ctrlplane.CloseTeardown && !cs.parked {
		// The cache tore down an orphaned pair: its recorded handle points
		// at a client that has since resumed on a different cached pair.
		// The teardown does not concern the (active) client.
		return
	}
	if reason == ctrlplane.CloseExpired {
		s.Stats.Expires++
	}
	s.tenantClose(cs)
	s.unplace(cs)
	cs.parked = false
	cs.limbo = true
	s.limbo = append(s.limbo, cs.id)
	for len(s.limbo) > limboCap {
		id := s.limbo[0]
		s.limbo = s.limbo[1:]
		s.releaseID(id)
	}
}

// Forget administratively releases a parked or quarantined identity: the
// id returns to the pool and its dedup window is dropped, as if the
// quarantine had aged it out. Active clients are untouched.
func (s *Server) Forget(id uint16) {
	if int(id) >= len(s.clients) {
		return
	}
	cs := s.clients[id]
	if cs == nil || (!cs.parked && !cs.limbo) {
		return
	}
	s.unplace(cs)
	cs.parked = false
	cs.limbo = true
	for i, l := range s.limbo {
		if l == id {
			s.limbo = append(s.limbo[:i], s.limbo[i+1:]...)
			break
		}
	}
	s.releaseID(id)
}

// releaseID frees a quarantined identity for good: the id returns to the
// pool and the dedup window is dropped (a future client under this id
// starts a fresh reqID space).
func (s *Server) releaseID(id uint16) {
	cs := s.clients[id]
	if cs == nil || !cs.limbo {
		return
	}
	s.clients[id] = nil
	s.freeIDs = append(s.freeIDs, id)
	s.replies.Drop(id)
}

// placeJoined places a (re)admitted client: a reserved zone when requested
// and available, otherwise the grouped path.
func (a *ctrlAdapter) placeJoined(cs *clientState, pinned bool) {
	s := a.s
	if pinned {
		if z := s.reservedZoneFor(cs); z >= 0 {
			cs.pinned = true
			cs.zone = z
			cs.group = -1
			return
		}
	}
	cs.pinned = false
	s.place(cs)
}

func joinResp(cs *clientState) []byte {
	resp := make([]byte, joinRespSize)
	binary.LittleEndian.PutUint16(resp, cs.id)
	if cs.pinned {
		resp[2] = 1
	}
	binary.LittleEndian.PutUint16(resp[3:], uint16(int16(cs.zone)))
	return resp
}

// allocID returns the next client id: released ids first, then fresh ones.
func (s *Server) allocID() (uint16, error) {
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return id, nil
	}
	if len(s.clients) >= s.Cfg.MaxClients {
		return 0, fmt.Errorf("scalerpc: server full (%d clients)", s.Cfg.MaxClients)
	}
	return uint16(len(s.clients)), nil
}

func (s *Server) lookupHandle(handle uint64) *clientState {
	if handle == 0 || handle > uint64(len(s.clients)) {
		return nil
	}
	return s.clients[handle-1]
}

// Join admits a client through the control plane: register the staging and
// response regions on the client host, dial the server's manager (cold
// handshake with modeled QP-setup latency, or a cached resume), and build
// a Conn on the dialed QP. t must run on the client host. pinned requests
// a reserved zone; like ConnectLatencySensitive it degrades to the grouped
// path when none is free (check Conn.Pinned for the outcome).
func (s *Server) Join(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal, pinned bool) (*Conn, error) {
	return s.JoinTenant(t, dir, sig, pinned, 0)
}

// JoinTenant is Join with an explicit tenant identity: the tenant id rides
// in the connect-request payload, so the server-side admission gate can
// queue or reject the dial against the tenant's quota before any QP is
// built, and every request the client later stages is attributed to the
// tenant. Tenant 0 is the default tenant.
func (s *Server) JoinTenant(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal, pinned bool, tenant uint16) (*Conn, error) {
	ch := t.Host
	mgr := dir.Manager(ch.ID)
	if mgr == nil {
		return nil, fmt.Errorf("scalerpc: no control-plane manager on host %d", ch.ID)
	}
	stage := ch.Mem.Register(s.Cfg.BlockSize*s.Cfg.BlocksPerClient, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead)
	respReg := ch.Mem.Register(s.Cfg.BlockSize*(s.Cfg.BlocksPerClient+1), memory.PageSize2M,
		memory.LocalWrite|memory.RemoteWrite)
	c := &Conn{
		h:            ch,
		s:            s,
		sig:          sig,
		stage:        stage,
		entryScratch: ch.Mem.Register(64, memory.PageSize4K, memory.LocalWrite),
		resp:         rpcwire.NewPool(respReg, s.Cfg.BlockSize, s.Cfg.BlocksPerClient+1, 1),
		buf:          make([]byte, s.Cfg.BlockSize),
		slots:        make([]connSlot, s.Cfg.BlocksPerClient),
		zone:         -1,
		poolIdx:      -1,
		mgr:          mgr,
		joinPinned:   pinned,
		joinTenant:   tenant,
	}
	c.trace = s.trace
	cp, err := mgr.Dial(t, s.Host.ID, ServiceName, c.joinPayload())
	if err != nil {
		return nil, err
	}
	if err := c.adoptDial(cp); err != nil {
		return nil, err
	}
	ch.NIC.WatchRegion(respReg.RKey, sig)
	return c, nil
}

// Pinned reports whether the connection holds a reserved zone.
func (c *Conn) Pinned() bool { return c.pinned }

// ID returns the server-assigned client id.
func (c *Conn) ID() uint16 { return c.id }

// Left reports whether the connection is currently departed (between
// Leave and Rejoin).
func (c *Conn) Left() bool { return c.left }

// Leave departs gracefully: the QP pair parks in the connection cache on
// both sides and the server drops this client from its group at the next
// switch. Unanswered requests stay in the staging area; Rejoin re-offers
// them. TrySend and Poll are inert until then.
func (c *Conn) Leave(t *host.Thread) {
	if c.cp == nil || c.left {
		return
	}
	c.cp.Close(t)
	c.left = true
	c.state = StateIdle
	c.zone = -1
	c.poolIdx = -1
	c.traceState(StateIdle)
}

// Rejoin re-admits a departed (or failed) connection through the control
// plane. A cache hit resumes the parked QP pair under the same id in one
// round trip; a miss (evicted, expired, or errored) runs the cold
// handshake, and if the server issued a new id the staged requests are
// restamped before they go back out. Surviving requests re-offer through
// a fresh warmup round, same as the context-switch race.
func (c *Conn) Rejoin(t *host.Thread) error {
	if c.mgr == nil {
		return ErrNotManaged
	}
	if !c.left && c.qp.Err() == nil {
		return nil
	}
	oldID := c.id
	cp, err := c.mgr.Dial(t, c.s.Host.ID, ServiceName, c.joinPayload())
	if err != nil {
		return err
	}
	if err := c.adoptDial(cp); err != nil {
		return err
	}
	c.left = false
	if c.id != oldID {
		c.restampID(t)
	}
	if c.pinned {
		// Reserved-zone clients skip warmup and resend in place.
		return nil
	}
	c.state = StateIdle
	c.zone = -1
	c.poolIdx = -1
	c.onContextSwitch(t)
	return nil
}

// joinPayload encodes the client's region exchange for Dial.
func (c *Conn) joinPayload() []byte {
	p := make([]byte, joinReqSize)
	binary.LittleEndian.PutUint64(p, c.resp.Region.Base)
	binary.LittleEndian.PutUint32(p[8:], c.resp.Region.RKey)
	binary.LittleEndian.PutUint64(p[12:], c.stage.Base)
	binary.LittleEndian.PutUint32(p[20:], c.stage.RKey)
	if c.joinPinned {
		p[24] = 1
	}
	binary.LittleEndian.PutUint16(p[25:], c.joinTenant)
	return p
}

// adoptDial installs the dialed control-plane connection and parses the
// server's admission response.
func (c *Conn) adoptDial(cp *ctrlplane.Conn) error {
	if len(cp.Payload) != joinRespSize {
		return fmt.Errorf("scalerpc: join response is %d bytes, want %d", len(cp.Payload), joinRespSize)
	}
	c.cp = cp
	c.qp = cp.QP
	c.id = binary.LittleEndian.Uint16(cp.Payload)
	c.pinned = cp.Payload[2] != 0
	if c.pinned {
		c.state = StateProcess
		c.zone = int(int16(binary.LittleEndian.Uint16(cp.Payload[3:])))
		c.poolIdx = 0
	}
	return nil
}

// restampID rewrites the ClientID field of every staged, unanswered
// request after a cold rejoin handed out a new id. The header sits at the
// front of the right-aligned encoded message; ClientID is 2 bytes at
// message offset 9 (after ReqID u64 and Handler u8). The rewrite changes
// CRC-covered bytes, so the frame is resealed and the CRC word flushed too.
func (c *Conn) restampID(t *host.Thread) {
	for b := range c.slots {
		if !c.slots[b].busy || !c.slots[b].staged {
			continue
		}
		off, _ := rpcwire.EncodedSpan(c.s.Cfg.BlockSize, c.slots[b].msgLen)
		at := b*c.s.Cfg.BlockSize + off + 9
		binary.LittleEndian.PutUint16(c.stage.Bytes()[at:], c.id)
		t.WriteMem(c.stage.Base+uint64(at), 2)
		block := c.stage.Bytes()[b*c.s.Cfg.BlockSize : (b+1)*c.s.Cfg.BlockSize]
		crcAt := b*c.s.Cfg.BlockSize + rpcwire.Reseal(block)
		t.WriteMem(c.stage.Base+uint64(crcAt), 4)
	}
}
