// Elastic membership for the RawWrite baseline, over the same roster as
// ScaleRPC so the churn experiment compares like with like. What is left
// here is the structural difference, and it is on-message: RawWrite's
// statically mapped pool has no scheduler to regroup, so a client's zone is
// its id, a departed client's zone stays mapped (and swept) until the
// roster gives the identity up, and the tenant charged for the zone keeps
// paying for it while the client is gracefully away — the footprint never
// shrinks on a leave, which is exactly the design the paper criticizes.
package rawrpc

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// ServiceName is the control-plane service a RawWrite server registers.
const ServiceName = "rawrpc"

// Join request payload: respAddr u64 | respRKey u32 | tenant u16. The
// response zone is the identity.
const (
	joinIdentitySize = 8 + 4
	joinReqSize      = joinIdentitySize + 2
)

// Join/resume response payload: id u16 (the zone is the id — static map).
const joinRespSize = 2

// membership is the client half of a managed connection; Conn embeds it
// under this name so that only Left is promoted into the package's surface.
type membership = ctrlplane.Membership

// TenantGate is the subset of the tenant manager's surface the RawWrite
// server needs; internal/tenant's Manager satisfies it structurally.
// RawWrite has no scheduler to weight, so the only tenant lever is the zone
// footprint itself, and every connection is reported pinned: a static zone
// is a permanent reservation, exactly what a reserved zone is on the
// ScaleRPC side.
type TenantGate = ctrlplane.Gate

// SetTenantGate installs the tenant manager. Must be called before
// clients join; nil (the default) disables tenant gating.
func (s *Server) SetTenantGate(g TenantGate) { s.roster.SetGate(g) }

// BindControlPlane registers this server with its host's control-plane
// manager so clients can Join in-band.
func (s *Server) BindControlPlane(m *ctrlplane.Manager) {
	if m.Host() != s.Host {
		panic("rawrpc: control-plane manager runs on a different host")
	}
	m.RegisterService(ServiceName, s.roster)
}

// Forget administratively releases a parked or quarantined identity: the
// zone returns to the pool, its dedup window is dropped and the tenant's
// charge ends. Active clients are untouched.
func (s *Server) Forget(id uint16) { s.roster.Forget(id) }

// placement is the roster's view of the static zone map.
type placement struct{ s *Server }

func (p placement) Slots() int { return len(p.s.clients) }

func (p placement) Member(id uint16) *ctrlplane.Member {
	if cs := p.s.clients[id]; cs != nil {
		return &cs.Member
	}
	return nil
}

func (p placement) Parse(payload []byte) ([]byte, uint16, bool, error) {
	if len(payload) != joinReqSize {
		return nil, 0, false, fmt.Errorf("rawrpc: join payload is %d bytes, want %d", len(payload), joinReqSize)
	}
	return payload[:joinIdentitySize], binary.LittleEndian.Uint16(payload[joinIdentitySize:]), true, nil
}

// Admit maps the new client's zone: the next one, or one a released
// identity gave back.
func (p placement) Admit(t *host.Thread, m ctrlplane.Member, payload []byte, pinned bool) *ctrlplane.Member {
	s := p.s
	m.Pinned = true
	cs := &clientState{Member: m, resp: rpccore.RespZone{
		Addr: binary.LittleEndian.Uint64(payload),
		RKey: binary.LittleEndian.Uint32(payload[8:]),
	}}
	if int(m.ID) == len(s.clients) {
		s.clients = append(s.clients, cs)
	} else {
		// A reused zone may hold stale valid blocks from its previous
		// occupant; clear them so the sweep doesn't serve ghosts, and
		// drop any dedup state left under the reused id.
		for b := 0; b < s.Cfg.BlocksPerClient; b++ {
			s.Req.Clear(int(m.ID), b)
		}
		s.Replies.Drop(m.ID)
		s.clients[m.ID] = cs
	}
	return &cs.Member
}

// Readmit has nothing to move: the zone is the id, and it stayed mapped.
func (p placement) Readmit(*host.Thread, *ctrlplane.Member, bool) {}

// Unplace has nothing to unmap: a departed client's zone is still swept.
// On a graceful leave that includes the tenant's charge — it is not given
// back, which is the honest accounting of a footprint that never shrinks;
// only the roster giving the client up for dead releases it.
func (p placement) Unplace(*ctrlplane.Member, ctrlplane.CloseReason) {}

func (p placement) Release(id uint16) {
	p.s.clients[id] = nil
	p.s.Replies.Drop(id)
}

func (p placement) Response(m *ctrlplane.Member) []byte {
	return binary.LittleEndian.AppendUint16(make([]byte, 0, joinRespSize), m.ID)
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
	ms, err := dir.NewMembership(t.Host.ID, s.Host.ID, ServiceName)
	if err != nil {
		return nil, err
	}
	c := s.newConn(t.Host, sig)
	c.membership, c.joinTenant = ms, tenant
	if err := c.Rejoin(t); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the server-assigned client id (also the static zone).
func (c *Conn) ID() uint16 { return c.req.ID }

// Leave departs gracefully: the QP pair parks in the connection cache.
// RawWrite has no scheduler to tell — the zone stays mapped and requests
// already written there are still served (responses land in the response
// region and are picked up after Rejoin).
func (c *Conn) Leave(t *host.Thread) { c.membership.Leave(t) }

// Rejoin re-admits a departed (or failed) connection. A cache hit resumes
// under the same id; a cold handshake may assign a new id (new zone), in
// which case unanswered staged requests are re-posted into the new zone.
func (c *Conn) Rejoin(t *host.Thread) error {
	oldID := c.req.ID
	dialed, err := c.membership.Rejoin(t, c.req.QP, c.joinPayload(), c.adoptDial)
	if dialed && c.req.ID != oldID {
		c.repostStaged(t)
	}
	return err
}

func (c *Conn) joinPayload() []byte {
	p := make([]byte, joinReqSize)
	zone := c.resp.Zone()
	binary.LittleEndian.PutUint64(p, zone.Addr)
	binary.LittleEndian.PutUint32(p[8:], zone.RKey)
	binary.LittleEndian.PutUint16(p[joinIdentitySize:], c.joinTenant)
	return p
}

func (c *Conn) adoptDial(cp *ctrlplane.Conn) error {
	if len(cp.Payload) != joinRespSize {
		return fmt.Errorf("rawrpc: join response is %d bytes, want %d", len(cp.Payload), joinRespSize)
	}
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
			c.req.Post(t, c.s.Req.Pool, int(c.req.ID), b, c.Slots[b].MsgLen)
		}
	}
}
