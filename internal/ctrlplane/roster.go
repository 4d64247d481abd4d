package ctrlplane

import (
	"errors"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/nic"
)

// A Roster is the identity lifecycle of one managed transport's clients,
// and the Service the transport registers with its Manager: who a dial is,
// which id it gets, what a departure does to the identity, and when the id
// is free again. It answers all of that from the dialing peer and the
// identity bytes of the join payload; where the client then sits in the
// transport — a group, a reserved zone, a static zone — is the transport's
// Placement.
//
// An identity is active, parked (it left gracefully; its QP pair sits in
// the connection cache) or in limbo (it went away ungracefully; the id and
// the dedup window behind it stay reserved so a client that recovers and
// dials back resumes exactly-once execution). Limbo is a FIFO of limboCap
// identities; overflow releases the oldest for real.
type Roster struct {
	name  string
	max   int
	place Placement
	gate  Gate

	free  []uint16 // released ids, reused before fresh ones
	limbo []uint16 // quarantined ids, oldest first
}

// limboCap bounds the quarantine: at most this many ungracefully departed
// identities wait for their client before the oldest is released.
const limboCap = 64

// Member is the roster's part of a transport's client record (the
// transport embeds it).
type Member struct {
	ID uint16
	// Peer is the host the client dialed from, -1 for a client the
	// transport admitted through its Connect backdoor. Peer and the
	// payload's identity bytes together are the identity: every host's
	// memory registry starts at the same address and key, so clients on two
	// hosts present identical region tuples.
	Peer   int
	Tenant uint16
	// Pinned is reported to the gate with every open and close; the
	// placement sets it.
	Pinned bool
	// QP is the server half of the client's current pair.
	QP *nic.QP

	Parked bool
	Limbo  bool

	identity string
	// counted marks that the gate has been told this identity is open and
	// must be told when it closes, whichever departure comes first.
	counted bool
}

// Gate is the tenant admission authority a roster consults. All methods
// run on server-host threads; implementations need no locking.
type Gate interface {
	// AdmitConn decides whether one more connection from the tenant may be
	// admitted, and whether a requested reserved (pinned) zone is within
	// the tenant's zone quota. A nil error admits; an error rejects with
	// that reason. The call must be side-effect free: it runs in the
	// pre-admission gate and again in Accept/Resume.
	AdmitConn(tenant uint16, pinned bool) (pinnedGranted bool, err error)
	// ConnOpened/ConnClosed track the tenant's live connection count (and
	// pinned-zone occupancy). The roster guarantees they pair.
	ConnOpened(tenant uint16, pinned bool)
	ConnClosed(tenant uint16, pinned bool)
}

// Placement is what differs between the transports a roster admits into.
type Placement interface {
	// Slots is the length of the transport's client table, which ids
	// index; Member returns the roster's part of the record under id, nil
	// for an empty slot.
	Slots() int
	Member(id uint16) *Member
	// Parse splits a join payload into the identity bytes, the tenant and
	// whether a reserved zone is requested, or refuses it.
	Parse(payload []byte) (identity []byte, tenant uint16, pinned bool, err error)
	// Admit builds the record of a new identity from m and the payload,
	// stores it under m.ID and places the client.
	Admit(t *host.Thread, m Member, payload []byte, pinned bool) *Member
	// Readmit places a returning identity; m.QP is already its new pair.
	Readmit(t *host.Thread, m *Member, pinned bool)
	// Unplace takes a departing identity out of service. On CloseLeave the
	// gate's charge is still live and the transport decides whether parking
	// gives it back (Uncharge); on every other reason the roster has
	// released it already.
	Unplace(m *Member, why CloseReason)
	// Release empties the slot of an identity given up for good and drops
	// the dedup window kept under its id.
	Release(id uint16)
	// Response encodes the admission answer for m.
	Response(m *Member) []byte
}

// NewRoster returns the roster of a transport with room for max clients;
// name prefixes its errors.
func NewRoster(name string, max int, place Placement) *Roster {
	return &Roster{name: name, max: max, place: place}
}

// SetGate installs the tenant authority; nil (the default) admits all.
func (r *Roster) SetGate(g Gate) { r.gate = g }

// Charge tells the gate m is open, at most once per open/close cycle.
func (r *Roster) Charge(m *Member) {
	if r.gate != nil && !m.counted {
		m.counted = true
		r.gate.ConnOpened(m.Tenant, m.Pinned)
	}
}

// Uncharge tells the gate m closed; only the first call after a Charge
// counts, so every departure path may call it.
func (r *Roster) Uncharge(m *Member) {
	if r.gate != nil && m.counted {
		m.counted = false
		r.gate.ConnClosed(m.Tenant, m.Pinned)
	}
}

// match returns the identity a dial belongs to, scanning in id order for
// determinism: same peer, same identity bytes, and parked, in limbo, or
// active on a QP that has errored — a client that re-dials before the sweep
// notices its dead pair is the same client, and a fresh id would silently
// drop its dedup window, so the retried request would execute twice.
func (r *Roster) match(peer int, identity []byte) *Member {
	for id := 0; id < r.place.Slots(); id++ {
		m := r.place.Member(uint16(id))
		if m == nil || m.Peer != peer || m.identity != string(identity) {
			continue
		}
		if m.Parked || m.Limbo || (m.QP != nil && m.QP.Err() != nil) {
			return m
		}
	}
	return nil
}

// admit is the admission rule for a dial that matched m (nil: a new
// identity). A returning identity keeps its tenant: with the peer in the
// identity a mismatch is not another host's client but a malformed or
// forged payload, and it must not inherit the id or its charge. An identity
// whose charge is still live passes the gate for free — readmitting it
// cannot exceed the budget it never gave back.
func (r *Roster) admit(m *Member, tenant uint16, pinned bool) (bool, error) {
	if m != nil && m.Tenant != tenant {
		return false, fmt.Errorf("%s: identity owned by another tenant", r.name)
	}
	if r.gate == nil || (m != nil && m.counted) {
		return pinned, nil
	}
	return r.gate.AdmitConn(tenant, pinned)
}

// PreAdmit implements Gatekeeper: the gate's verdict before the manager
// builds any QP state, so an over-quota dial is rejected before
// the handshake spends a single ModifyQP. Side-effect free; Accept and
// Resume decide again, authoritatively.
func (r *Roster) PreAdmit(peer int, service string, payload []byte) error {
	if r.gate == nil {
		return nil
	}
	identity, tenant, pinned, err := r.place.Parse(payload)
	if err == nil {
		_, err = r.admit(r.match(peer, identity), tenant, pinned)
	}
	return err
}

// Accept implements Service for a cold dial: a returning identity whose
// cached pair is gone reclaims its id, anyone else gets the next one
// (released ids first). The handle is id+1 so that zero is never valid.
func (r *Roster) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	identity, tenant, pinned, err := r.place.Parse(payload)
	if err != nil {
		return nil, 0, err
	}
	if m := r.match(peer, identity); m != nil {
		return r.reclaim(t, m, qp, tenant, pinned)
	}
	if pinned, err = r.admit(nil, tenant, pinned); err != nil {
		return nil, 0, err
	}
	id := uint16(r.place.Slots())
	if n := len(r.free); n > 0 {
		id, r.free = r.free[n-1], r.free[:n-1]
	} else if int(id) >= r.max {
		return nil, 0, fmt.Errorf("%s: server full (%d clients)", r.name, r.max)
	}
	m := r.place.Admit(t, Member{ID: id, Peer: peer, Tenant: tenant, QP: qp, identity: string(identity)}, payload, pinned)
	r.Charge(m)
	return r.place.Response(m), uint64(id) + 1, nil
}

// Resume implements Service for a cached pair. Cached pairs are fungible
// across clients of one (peer, service), so the caller is whoever the
// payload says it is — not the handle recorded when the pair parked, which
// may belong to a client that has since resumed on another pair — and its
// id becomes the connection's handle.
func (r *Roster) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	identity, tenant, pinned, err := r.place.Parse(payload)
	if err != nil {
		return nil, 0, err
	}
	m := r.match(peer, identity)
	if m == nil {
		return nil, 0, fmt.Errorf("%s: no parked client matches the resume payload", r.name)
	}
	return r.reclaim(t, m, qp, tenant, pinned)
}

// reclaim readmits a matched identity on qp.
func (r *Roster) reclaim(t *host.Thread, m *Member, qp *nic.QP, tenant uint16, pinned bool) ([]byte, uint64, error) {
	pinned, err := r.admit(m, tenant, pinned)
	if err != nil {
		return nil, 0, err
	}
	if !m.Parked && !m.Limbo {
		// Still active on the dead pair: retire that activation first so the
		// readmission is not a double placement. The dead pair's CloseError
		// then finds a live QP under the handle and stands down.
		r.Uncharge(m)
		r.place.Unplace(m, CloseError)
	}
	m.Parked = false
	r.unlimbo(m)
	m.QP = qp
	r.place.Readmit(t, m, pinned)
	r.Charge(m)
	return r.place.Response(m), uint64(m.ID) + 1, nil
}

// Closed implements Service: what a departure does to the identity.
//
//	leave                                   park: id, regions and dedup window stay
//	already in limbo                        ignore: another stale pair of the same identity
//	error, but the identity's QP is fine    ignore: it already rebound onto a fresh pair
//	teardown, but the identity is active    ignore: it resumed on a different cached pair
//	anything else                           quarantine; overflow releases the oldest
func (r *Roster) Closed(peer int, handle uint64, why CloseReason) {
	if handle == 0 || handle > uint64(r.place.Slots()) {
		return
	}
	m := r.place.Member(uint16(handle - 1))
	switch {
	case m == nil:
	case why == CloseLeave:
		r.place.Unplace(m, why)
		m.Parked = true
	case m.Limbo, why == CloseError && m.QP.Err() == nil, why == CloseTeardown && !m.Parked:
	default:
		r.Uncharge(m)
		r.place.Unplace(m, why)
		m.Parked, m.Limbo = false, true
		r.limbo = append(r.limbo, m.ID)
		for len(r.limbo) > limboCap {
			r.release(r.place.Member(r.limbo[0]))
		}
	}
}

// Forget administratively gives up a parked or quarantined identity, as if
// the quarantine had aged it out. Active clients are untouched.
func (r *Roster) Forget(id uint16) {
	if int(id) >= r.place.Slots() {
		return
	}
	if m := r.place.Member(id); m != nil && (m.Parked || m.Limbo) {
		r.release(m)
	}
}

// release frees an identity for good: the charge a parked one may still
// hold, its place in the quarantine, the slot and dedup window, and the id.
func (r *Roster) release(m *Member) {
	r.Uncharge(m)
	r.unlimbo(m)
	r.place.Release(m.ID)
	r.free = append(r.free, m.ID)
}

// unlimbo takes m out of the quarantine if it is in it.
func (r *Roster) unlimbo(m *Member) {
	if !m.Limbo {
		return
	}
	m.Limbo = false
	for i, id := range r.limbo {
		if id == m.ID {
			r.limbo = append(r.limbo[:i], r.limbo[i+1:]...)
			return
		}
	}
}

// ErrNotManaged is returned by a transport connection's Rejoin when the
// connection was admitted through the Connect backdoor rather than the
// control plane.
var ErrNotManaged = errors.New("ctrlplane: connection not admitted through the control plane")

// Membership is the client half of a managed connection (the transport's
// Conn embeds it): which manager dials, to whom, and whether the client is
// currently departed. The zero value is a backdoor connection.
type Membership struct {
	mgr     *Manager
	cp      *Conn
	server  int
	service string
	left    bool
}

// NewMembership returns the not-yet-joined membership of a client on host
// from dialing service on host server.
func (d *Directory) NewMembership(from, server int, service string) (Membership, error) {
	mgr := d.Manager(from)
	if mgr == nil {
		return Membership{}, fmt.Errorf("ctrlplane: no manager on host %d", from)
	}
	return Membership{mgr: mgr, server: server, service: service, left: true}, nil
}

// Left reports whether the connection is departed: between Leave and
// Rejoin, or not yet joined.
func (ms *Membership) Left() bool { return ms.left }

// Leave departs gracefully — the QP pair parks in the connection cache on
// both sides — and reports whether there was a live membership to leave.
func (ms *Membership) Leave(t *host.Thread) bool {
	if ms.cp == nil || ms.left {
		return false
	}
	ms.cp.Close(t)
	ms.left = true
	return true
}

// Rejoin admits a departed, failed or not-yet-joined connection: a cache
// hit resumes a parked pair in one round trip, a miss runs the cold
// handshake. qp is the connection's current QP; a connection that has not
// left and whose QP is healthy is already up and nothing is dialed. adopt
// installs the dialed connection and parses the server's answer. Reports
// whether a new connection was adopted.
func (ms *Membership) Rejoin(t *host.Thread, qp *nic.QP, payload []byte, adopt func(*Conn) error) (bool, error) {
	if ms.mgr == nil {
		return false, ErrNotManaged
	}
	if !ms.left && qp.Err() == nil {
		return false, nil
	}
	cp, err := ms.mgr.Dial(t, ms.server, ms.service, payload)
	if err == nil {
		err = adopt(cp)
	}
	if err != nil {
		return false, err
	}
	ms.cp, ms.left = cp, false
	return true, nil
}
