// Elastic membership: ScaleRPC admission over the connection control
// plane. A server binds itself to its host's ctrlplane.Manager under
// ServiceName; clients then Join through the in-band, costed handshake
// instead of the zero-cost Connect backdoor, Leave gracefully (the QP pair
// parks in the connection cache, the id stays reserved), and Rejoin —
// resuming from the cache when possible, falling back to a cold handshake
// (with a fresh id and a ClientID restamp of staged requests) when the
// cache evicted or the lease expired. Joins and departures reach the groups
// at the next slice boundary; in-flight slices are never disturbed.
package scalerpc

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
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
// The four region words are the identity.
const (
	joinIdentitySize = 8 + 4 + 8 + 4
	joinReqSize      = joinIdentitySize + 1 + 2
)

// Join/resume response payload: id u16 | pinnedGranted u8 | zone i16.
const joinRespSize = 2 + 1 + 2

// membership is the client half of a managed connection; Conn embeds it
// under this name so that only Left is promoted into the package's surface.
type membership = ctrlplane.Membership

// BindControlPlane registers this server with its host's control-plane
// manager so clients can Join in-band, and subscribes to the manager's
// failure-detector ladder: a demoted peer's clients are isolated into
// suspect groups (probes suppressed, service continues) and restored when
// the peer clears. Eviction needs no hook — the manager's expiry sweep
// tears the connection down through the roster's Closed path.
func (s *Server) BindControlPlane(m *ctrlplane.Manager) {
	if m.Host() != s.Host {
		panic("scalerpc: control-plane manager runs on a different host")
	}
	s.mgr = m
	m.RegisterService(ServiceName, s.roster)
	m.OnPeerState(func(peer int, old, new ctrlplane.PeerState) {
		switch new {
		case ctrlplane.PeerDemoted:
			s.DemotePeer(peer)
		case ctrlplane.PeerHealthy:
			s.RestorePeer(peer)
		}
	})
}

// Forget administratively releases a parked or quarantined identity: the
// id returns to the pool and its dedup window is dropped, as if the
// quarantine had aged it out. Active clients are untouched.
func (s *Server) Forget(id uint16) { s.roster.Forget(id) }

// placement is what the roster's decisions mean to a ScaleRPC server: an
// admitted client gets a reserved zone at once or a group at the next slice
// boundary, where a departed one leaves its group.
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
		return nil, 0, false, fmt.Errorf("scalerpc: join payload is %d bytes, want %d", len(payload), joinReqSize)
	}
	return payload[:joinIdentitySize], binary.LittleEndian.Uint16(payload[joinIdentitySize+1:]), payload[joinIdentitySize] != 0, nil
}

func (p placement) Admit(t *host.Thread, m ctrlplane.Member, payload []byte, pinned bool) *ctrlplane.Member {
	cs := p.s.newClient(m, payload)
	p.join(t, cs, pinned, "client_join")
	return &cs.Member
}

func (p placement) Readmit(t *host.Thread, m *ctrlplane.Member, pinned bool) {
	cs := p.s.clients[m.ID]
	cs.fetchedUpTo, cs.missedSlices, cs.scannedAt = 0, 0, 0
	p.join(t, cs, pinned, "client_rejoin")
}

// join places an admitted client — a reserved zone when it asks for latency
// sensitivity and one is free, otherwise a group — after inheriting its
// peer's detector state, which class-pure grouping and suspect isolation
// both read at placement: a client joining from an already-demoted peer
// lands in a suspect group rather than a healthy one.
func (p placement) join(t *host.Thread, cs *clientState, pinned bool, event string) {
	s := p.s
	cs.demoted = s.mgr.PeerStateOf(cs.Peer) == ctrlplane.PeerDemoted
	s.placeJoined(cs, s.reserved(pinned))
	s.Stats.Joins++
	if s.trace.Enabled {
		s.trace.Emit(t.P.Now(), event, telemetry.A("client", int64(cs.ID)))
	}
}

// Unplace drops the client out of its group at the next slice boundary. A
// graceful leave also gives the tenant's connection back: unlike RawWrite's
// static zone, a parked ScaleRPC client occupies nothing.
func (p placement) Unplace(m *ctrlplane.Member, why ctrlplane.CloseReason) {
	s := p.s
	switch why {
	case ctrlplane.CloseLeave:
		s.roster.Uncharge(m)
		s.Stats.Leaves++
	case ctrlplane.CloseExpired:
		s.Stats.Expires++
	}
	s.unplace(s.clients[m.ID])
}

// Release drops the dedup window with the slot: a future client under this
// id starts a fresh reqID space.
func (p placement) Release(id uint16) {
	p.s.clients[id] = nil
	p.s.replies.Drop(id)
}

func (p placement) Response(m *ctrlplane.Member) []byte {
	resp := make([]byte, joinRespSize)
	binary.LittleEndian.PutUint16(resp, m.ID)
	if m.Pinned {
		resp[2] = 1
	}
	binary.LittleEndian.PutUint16(resp[3:], uint16(int16(p.s.clients[m.ID].zones[processing])))
	return resp
}

// Join admits a client through the control plane: register the staging and
// response regions on the client host, dial the server's manager (cold
// handshake with modeled QP-setup latency, or a cached resume), and build
// a Conn on the dialed QP. t must run on the client host. pinned requests
// a reserved zone; like ConnectLatencySensitive it degrades to the grouped
// path when none is free.
func (s *Server) Join(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal, pinned bool) (*Conn, error) {
	return s.JoinTenant(t, dir, sig, pinned, 0)
}

// JoinTenant is Join with an explicit tenant identity: the tenant id rides
// in the connect-request payload, so the server-side admission gate can
// queue or reject the dial against the tenant's quota before any QP is
// built, and every request the client later stages is attributed to the
// tenant. Tenant 0 is the default tenant.
func (s *Server) JoinTenant(t *host.Thread, dir *ctrlplane.Directory, sig *sim.Signal, pinned bool, tenant uint16) (*Conn, error) {
	ms, err := dir.NewMembership(t.Host.ID, s.Host.ID, ServiceName)
	if err != nil {
		return nil, err
	}
	c := s.newConn(t.Host, sig)
	c.membership, c.joinPinned, c.joinTenant = ms, pinned, tenant
	if _, err := c.membership.Rejoin(t, c.req.QP, c.joinPayload(), c.adoptDial); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the server-assigned client id.
func (c *Conn) ID() uint16 { return c.req.ID }

// Leave departs gracefully: the QP pair parks in the connection cache on
// both sides and the server drops this client from its group at the next
// slice boundary. Unanswered requests stay in the staging area; Rejoin
// re-offers them. TrySend and Poll are inert until then.
func (c *Conn) Leave(t *host.Thread) {
	if c.membership.Leave(t) {
		c.fig7 = c.fig7.idle()
		c.traceState(StateIdle)
	}
}

// Rejoin re-admits a departed (or failed) connection through the control
// plane. A cache hit resumes the parked QP pair under the same id in one
// round trip; a miss (evicted, expired, or errored) runs the cold
// handshake, and if the server issued a new id the staged requests are
// restamped before they go back out. Surviving requests re-offer through
// a fresh warmup round, same as the context-switch race.
func (c *Conn) Rejoin(t *host.Thread) error {
	oldID := c.req.ID
	dialed, err := c.membership.Rejoin(t, c.req.QP, c.joinPayload(), c.adoptDial)
	if !dialed {
		return err
	}
	if c.req.ID != oldID {
		c.restampID(t)
	}
	c.resume(t)
	return nil
}

// joinPayload encodes the client's region exchange for Dial.
func (c *Conn) joinPayload() []byte {
	p := make([]byte, joinReqSize)
	binary.LittleEndian.PutUint64(p, c.resp.Region.Base)
	binary.LittleEndian.PutUint32(p[8:], c.resp.Region.RKey)
	binary.LittleEndian.PutUint64(p[12:], c.req.Region.Base)
	binary.LittleEndian.PutUint32(p[20:], c.req.Region.RKey)
	if c.joinPinned {
		p[joinIdentitySize] = 1
	}
	binary.LittleEndian.PutUint16(p[joinIdentitySize+1:], c.joinTenant)
	return p
}

// adoptDial installs the dialed control-plane connection and parses the
// server's admission response.
func (c *Conn) adoptDial(cp *ctrlplane.Conn) error {
	if len(cp.Payload) != joinRespSize {
		return fmt.Errorf("scalerpc: join response is %d bytes, want %d", len(cp.Payload), joinRespSize)
	}
	c.req.QP = cp.QP
	c.req.ID = binary.LittleEndian.Uint16(cp.Payload)
	c.adoptPlacement(cp.Payload[2] != 0, int(int16(binary.LittleEndian.Uint16(cp.Payload[3:]))))
	return nil
}

// restampID rewrites the ClientID field of every staged, unanswered
// request after a cold rejoin handed out a new id. The header sits at the
// front of the right-aligned encoded message. The rewrite changes
// CRC-covered bytes, so the frame is resealed and the CRC word flushed too.
// The frame's span is read out, rewritten and written back.
func (c *Conn) restampID(t *host.Thread) {
	frame := make([]byte, rpcwire.BlockSize)
	for b := range c.win.Slots {
		if !c.win.Slots[b].Busy {
			continue
		}
		off, n := rpcwire.EncodedSpan(rpcwire.BlockSize, c.win.Slots[b].MsgLen)
		at := int64(b*rpcwire.BlockSize + off)
		span := frame[:n]
		_, _ = c.req.Region.ReadAt(span, at) // b is a window slot
		binary.LittleEndian.PutUint16(span[rpcwire.ClientIDOffset:], c.req.ID)
		crcAt := at + int64(rpcwire.Reseal(span))
		_, _ = c.req.Region.WriteAt(span, at)
		t.WriteMem(c.req.Region.Base+uint64(at)+rpcwire.ClientIDOffset, 2)
		t.WriteMem(c.req.Region.Base+uint64(crcAt), 4)
	}
}
