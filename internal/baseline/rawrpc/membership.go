// Elastic membership for the RawWrite baseline, mirroring the ScaleRPC
// control-plane integration so the churn experiment compares like with
// like. The structural difference is on-message: RawWrite's statically
// mapped pool has no scheduler to regroup, so a departed client's zone
// keeps its static mapping (and the server keeps sweeping it) until the
// control plane drops the client outright — the footprint never shrinks
// on a graceful leave, which is exactly the design the paper criticizes.
package rawrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scalerpc/internal/baseline"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// ServiceName is the control-plane service a RawWrite server registers.
const ServiceName = "rawrpc"

// Join request payload: respAddr u64 | respRKey u32 | tenant u16.
const joinReqSize = 8 + 4 + 2

// Join/resume response payload: id u16 (the zone is the id — static map).
const joinRespSize = 2

// ErrNotManaged is returned by Rejoin on a connection that was admitted
// through the legacy Connect backdoor rather than the control plane.
var ErrNotManaged = errors.New("rawrpc: connection not admitted through the control plane")

// BindControlPlane registers this server with its host's control-plane
// manager so clients can Join in-band.
func (s *Server) BindControlPlane(m *ctrlplane.Manager) {
	if m.Host() != s.Host {
		panic("rawrpc: control-plane manager runs on a different host")
	}
	m.RegisterService(ServiceName, &ctrlAdapter{s: s})
}

type ctrlAdapter struct{ s *Server }

// PreAdmit gates a dial before any QP is built. A parked or quarantined
// identity that still holds its zone charge passes for free: its quota was
// never released, so readmitting it cannot exceed the tenant's budget.
func (a *ctrlAdapter) PreAdmit(peer int, service string, payload []byte) error {
	s := a.s
	if s.gate == nil || len(payload) != joinReqSize {
		return nil
	}
	if cs := s.findParked(peer, payload); cs != nil && cs.counted {
		return nil
	}
	_, err := s.gate.AdmitConn(binary.LittleEndian.Uint16(payload[12:]), true)
	return err
}

// Accept admits a new client on the next static zone (reusing zones of
// dropped clients). A cold rejoin with the same response region reclaims
// the still-parked identity.
func (a *ctrlAdapter) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	s := a.s
	if len(payload) != joinReqSize {
		return nil, 0, fmt.Errorf("rawrpc: join payload is %d bytes, want %d", len(payload), joinReqSize)
	}
	tenant := binary.LittleEndian.Uint16(payload[12:])
	if cs := s.findParked(peer, payload); cs != nil {
		// A reclaimed identity keeps its original tenant (and, if parked,
		// its still-live zone charge); a different tenant presenting an
		// aliased region must not inherit either.
		if s.gate != nil && cs.tenant != tenant {
			return nil, 0, fmt.Errorf("rawrpc: identity owned by another tenant")
		}
		if s.gate != nil && !cs.counted {
			if _, err := s.gate.AdmitConn(cs.tenant, true); err != nil {
				return nil, 0, err
			}
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
		s.tenantOpen(cs)
		return joinResp(cs), uint64(cs.id) + 1, nil
	}
	if s.gate != nil {
		if _, err := s.gate.AdmitConn(tenant, true); err != nil {
			return nil, 0, err
		}
	}
	id, err := s.allocID()
	if err != nil {
		return nil, 0, err
	}
	cs := &clientState{id: id, qp: qp, peer: peer, resp: joinZone(payload), tenant: tenant}
	if int(id) == len(s.clients) {
		s.clients = append(s.clients, cs)
	} else {
		// A reused zone may hold stale valid blocks from its previous
		// occupant; clear them so the sweep doesn't serve ghosts, and
		// drop any dedup state left under the reused id.
		for b := 0; b < s.Cfg.BlocksPerClient; b++ {
			rpcwire.Clear(s.Req.Block(int(id), b))
		}
		s.Replies.Drop(id)
		s.clients[id] = cs
	}
	s.tenantOpen(cs)
	return joinResp(cs), uint64(id) + 1, nil
}

// Resume reactivates a parked client. Cached pairs are fungible, so the
// caller is identified by its region payload and its id becomes the
// connection's new handle.
func (a *ctrlAdapter) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	s := a.s
	cs := s.findParked(peer, payload)
	if cs == nil {
		return nil, 0, errors.New("rawrpc: no parked client matches the resume payload")
	}
	if s.gate != nil && len(payload) == joinReqSize &&
		cs.tenant != binary.LittleEndian.Uint16(payload[12:]) {
		return nil, 0, errors.New("rawrpc: identity owned by another tenant")
	}
	if s.gate != nil && !cs.counted {
		if _, err := s.gate.AdmitConn(cs.tenant, true); err != nil {
			return nil, 0, err
		}
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
	s.tenantOpen(cs)
	return joinResp(cs), uint64(cs.id) + 1, nil
}

// limboCap bounds the identity quarantine (see Closed).
const limboCap = 64

// Closed handles departures. A graceful leave only marks the client
// parked — the zone stays mapped and swept. Every other reason — lease
// expiry, QP error, cache teardown of a parked entry — quarantines the
// identity: the id/zone and the reply cache's dedup window stay reserved
// so a crash-recovered client dialing back in (matched by its regions)
// resumes exactly-once execution. The quarantine is FIFO-bounded;
// overflow releases the oldest identity for real.
func (a *ctrlAdapter) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {
	s := a.s
	if handle == 0 || handle > uint64(len(s.clients)) {
		return
	}
	cs := s.clients[handle-1]
	if cs == nil {
		return
	}
	if reason == ctrlplane.CloseLeave {
		// The zone stays mapped and swept, so its tenant charge stays live
		// too: a gracefully departed bulk tenant keeps eating its quota,
		// which is the honest accounting of RawWrite's non-shrinking
		// footprint.
		cs.parked = true
		return
	}
	if cs.limbo {
		return
	}
	if reason == ctrlplane.CloseError && cs.qp.Err() == nil {
		// Orphaned pair: the client already rebound onto a fresh QP.
		return
	}
	if reason == ctrlplane.CloseTeardown && !cs.parked {
		// Teardown of an orphaned cached pair whose identity has since
		// resumed elsewhere.
		return
	}
	// The server gave the client up for dead: release the tenant charge so
	// the quota can readmit it (a resurrected identity is re-charged on its
	// way back in through Accept/Resume).
	s.tenantClose(cs)
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
// id returns to the pool and its dedup window is dropped. Active clients
// are untouched.
func (s *Server) Forget(id uint16) {
	if int(id) >= len(s.clients) {
		return
	}
	cs := s.clients[id]
	if cs == nil || (!cs.parked && !cs.limbo) {
		return
	}
	s.tenantClose(cs)
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
// pool and the dedup window is dropped (the freed id starts a fresh reqID
// space on its next owner).
func (s *Server) releaseID(id uint16) {
	cs := s.clients[id]
	if cs == nil || !cs.limbo {
		return
	}
	s.clients[id] = nil
	s.freeIDs = append(s.freeIDs, id)
	s.Replies.Drop(id)
}

func joinResp(cs *clientState) []byte {
	resp := make([]byte, joinRespSize)
	binary.LittleEndian.PutUint16(resp, cs.id)
	return resp
}

func (s *Server) allocID() (uint16, error) {
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return id, nil
	}
	if len(s.clients) >= s.Cfg.MaxClients {
		return 0, fmt.Errorf("rawrpc: server full (%d clients)", s.Cfg.MaxClients)
	}
	return uint16(len(s.clients)), nil
}

// findParked returns the parked or quarantined client whose peer and
// response region match the dial, scanning in id order for determinism.
// Peer and region together are the durable identity: a crash-recovered
// client dialing cold presents the same region from the same host and
// reclaims its id (and dedup window). The region alone is not enough —
// every host's memory registry starts at the same address and key.
func (s *Server) findParked(peer int, payload []byte) *clientState {
	if len(payload) != joinReqSize {
		return nil
	}
	zone := joinZone(payload)
	for _, cs := range s.clients {
		if cs != nil && (cs.parked || cs.limbo) && cs.peer == peer && cs.resp == zone {
			return cs
		}
	}
	return nil
}

// joinZone decodes the response zone a join payload names.
func joinZone(payload []byte) baseline.RespZone {
	return baseline.RespZone{
		Addr: binary.LittleEndian.Uint64(payload),
		RKey: binary.LittleEndian.Uint32(payload[8:]),
	}
}

// Join admits a client through the control plane under the default tenant:
// register the regions, dial the server's manager, and build a Conn on the
// dialed QP. t must run on the client host.
func (s *Server) Join(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal) (*Conn, error) {
	return s.JoinTenant(t, dir, sig, 0)
}

// JoinTenant is Join with explicit tenant attribution: the server's tenant
// gate (if any) charges the zone to the tenant at admission.
func (s *Server) JoinTenant(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal, tenant uint16) (*Conn, error) {
	ch := t.Host
	mgr := dir.Manager(ch.ID)
	if mgr == nil {
		return nil, fmt.Errorf("rawrpc: no control-plane manager on host %d", ch.ID)
	}
	c := s.newConn(ch, sig)
	c.mgr, c.joinTenant = mgr, tenant
	cp, err := mgr.Dial(t, s.Host.ID, ServiceName, c.joinPayload())
	if err != nil {
		return nil, err
	}
	if err := c.adoptDial(cp); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the server-assigned client id (also the static zone).
func (c *Conn) ID() uint16 { return c.req.ID }

// Left reports whether the connection is currently departed.
func (c *Conn) Left() bool { return c.left }

// Leave departs gracefully: the QP pair parks in the connection cache.
// RawWrite has no scheduler to tell — the zone stays mapped and requests
// already written there are still served (responses land in the response
// region and are picked up after Rejoin).
func (c *Conn) Leave(t *host.Thread) {
	if c.cp == nil || c.left {
		return
	}
	c.cp.Close(t)
	c.left = true
}

// Rejoin re-admits a departed (or failed) connection. A cache hit resumes
// under the same id; a cold handshake may assign a new id (new zone), in
// which case unanswered staged requests are re-posted into the new zone.
func (c *Conn) Rejoin(t *host.Thread) error {
	if c.mgr == nil {
		return ErrNotManaged
	}
	if !c.left && c.req.QP.Err() == nil {
		return nil
	}
	oldID := c.req.ID
	cp, err := c.mgr.Dial(t, c.s.Host.ID, ServiceName, c.joinPayload())
	if err != nil {
		return err
	}
	if err := c.adoptDial(cp); err != nil {
		return err
	}
	c.left = false
	if c.req.ID != oldID {
		c.repostStaged(t)
	}
	return nil
}

func (c *Conn) joinPayload() []byte {
	p := make([]byte, joinReqSize)
	zone := c.resp.Zone()
	binary.LittleEndian.PutUint64(p, zone.Addr)
	binary.LittleEndian.PutUint32(p[8:], zone.RKey)
	binary.LittleEndian.PutUint16(p[12:], c.joinTenant)
	return p
}

func (c *Conn) adoptDial(cp *ctrlplane.Conn) error {
	if len(cp.Payload) != joinRespSize {
		return fmt.Errorf("rawrpc: join response is %d bytes, want %d", len(cp.Payload), joinRespSize)
	}
	c.cp = cp
	c.req.QP = cp.QP
	c.req.ID = binary.LittleEndian.Uint16(cp.Payload)
	return nil
}

// repostStaged RDMA-writes every busy slot's staged request into the new
// zone after a cold rejoin changed the id. The server derives identity
// from the zone, so the staged bytes need no restamp; the old zone's
// leftovers are cleared when that id is reused.
func (c *Conn) repostStaged(t *host.Thread) {
	for b := range c.Slots {
		if c.Slots[b].Busy {
			c.req.Post(t, b, c.Slots[b].MsgLen)
		}
	}
}
