package ctrlplane_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
)

// fakePlace is a Placement that only keeps the table and a log of the
// hooks the roster called. Its join payload is identity bytes followed by
// one tenant byte.
type fakePlace struct {
	clients []*ctrlplane.Member
	log     []string
}

func (p *fakePlace) Slots() int                         { return len(p.clients) }
func (p *fakePlace) Member(id uint16) *ctrlplane.Member { return p.clients[id] }

func (p *fakePlace) Parse(payload []byte) ([]byte, uint16, bool, error) {
	if len(payload) < 2 {
		return nil, 0, false, errors.New("fake: short join payload")
	}
	n := len(payload) - 1
	return payload[:n], uint16(payload[n]), false, nil
}

func (p *fakePlace) Admit(t *host.Thread, m ctrlplane.Member, payload []byte, pinned bool) *ctrlplane.Member {
	p.log = append(p.log, fmt.Sprint("admit ", m.ID))
	if int(m.ID) == len(p.clients) {
		p.clients = append(p.clients, &m)
	} else {
		p.clients[m.ID] = &m
	}
	return &m
}

func (p *fakePlace) Readmit(t *host.Thread, m *ctrlplane.Member, pinned bool) {
	p.log = append(p.log, fmt.Sprint("readmit ", m.ID))
}

func (p *fakePlace) Unplace(m *ctrlplane.Member, why ctrlplane.CloseReason) {
	p.log = append(p.log, fmt.Sprint("unplace ", m.ID, " ", why))
}

func (p *fakePlace) Release(id uint16) {
	p.log = append(p.log, fmt.Sprint("release ", id))
	p.clients[id] = nil
}

func (p *fakePlace) Response(m *ctrlplane.Member) []byte { return []byte{byte(m.ID)} }

// take returns the hook log since the last call.
func (p *fakePlace) take() []string {
	out := p.log
	p.log = nil
	return out
}

// countGate admits everyone and counts the pairing.
type countGate struct{ admits, opened, closed int }

func (g *countGate) AdmitConn(uint16, bool) (bool, error) { g.admits++; return false, nil }
func (g *countGate) ConnOpened(uint16, bool)              { g.opened++ }
func (g *countGate) ConnClosed(uint16, bool)              { g.closed++ }

// rosterRig is a roster over a fakePlace, with a NIC to cut QPs from.
type rosterRig struct {
	t    *testing.T
	nic  *nic.NIC
	p    *fakePlace
	gate *countGate
	r    *ctrlplane.Roster
}

func newRosterRig(t *testing.T) *rosterRig {
	c := cluster.New(cluster.Default(1))
	t.Cleanup(c.Close)
	rig := &rosterRig{t: t, nic: c.Hosts[0].NIC, p: &fakePlace{}, gate: &countGate{}}
	rig.r = ctrlplane.NewRoster("fake", 256, rig.p)
	rig.r.SetGate(rig.gate)
	return rig
}

func (rig *rosterRig) qp() *nic.QP {
	cq := rig.nic.CreateCQ()
	return rig.nic.CreateQP(nic.RC, cq, cq)
}

// accept cold-dials identity from peer under tenant 1 and returns the
// handle and the server-side QP.
func (rig *rosterRig) accept(peer int, identity string) (uint64, *nic.QP) {
	rig.t.Helper()
	qp := rig.qp()
	_, h, err := rig.r.Accept(nil, peer, qp, append([]byte(identity), 1))
	if err != nil {
		rig.t.Fatalf("Accept(%d, %q): %v", peer, identity, err)
	}
	return h, qp
}

// TestRosterClosedTable walks every row of the Closed decision table.
func TestRosterClosedTable(t *testing.T) {
	const (
		active = iota
		parked
		limbo
		activeOnDeadQP
	)
	cases := []struct {
		name   string
		state  int
		why    ctrlplane.CloseReason
		hooks  []string
		parked bool
		limbo  bool
		closes int // gate closes this departure causes
	}{
		{"leave parks", active, ctrlplane.CloseLeave, []string{"unplace 0 leave"}, true, false, 0},
		{"expiry quarantines", active, ctrlplane.CloseExpired, []string{"unplace 0 expired"}, false, true, 1},
		{"error on the dead QP quarantines", activeOnDeadQP, ctrlplane.CloseError, []string{"unplace 0 error"}, false, true, 1},
		{"orphaned error pair: the identity's QP is healthy", active, ctrlplane.CloseError, nil, false, false, 0},
		{"orphaned teardown: the identity is active", active, ctrlplane.CloseTeardown, nil, false, false, 0},
		{"teardown of the parked pair quarantines", parked, ctrlplane.CloseTeardown, []string{"unplace 0 teardown"}, false, true, 1},
		{"double quarantine: expiry", limbo, ctrlplane.CloseExpired, nil, false, true, 0},
		{"double quarantine: teardown", limbo, ctrlplane.CloseTeardown, nil, false, true, 0},
		{"double quarantine: error", limbo, ctrlplane.CloseError, nil, false, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRosterRig(t)
			h, qp := rig.accept(1, "A")
			switch tc.state {
			case parked:
				rig.r.Closed(1, h, ctrlplane.CloseLeave)
				// The fake keeps the charge across a leave, as RawWrite does.
			case limbo:
				rig.r.Closed(1, h, ctrlplane.CloseExpired)
			case activeOnDeadQP:
				rig.nic.DestroyQP(qp)
			}
			rig.p.take()
			closed := rig.gate.closed
			rig.r.Closed(1, h, tc.why)
			m := rig.p.clients[0]
			if got := rig.p.take(); !reflect.DeepEqual(got, tc.hooks) {
				t.Errorf("hooks = %q, want %q", got, tc.hooks)
			}
			if m.Parked != tc.parked || m.Limbo != tc.limbo {
				t.Errorf("parked=%v limbo=%v, want %v/%v", m.Parked, m.Limbo, tc.parked, tc.limbo)
			}
			if got := rig.gate.closed - closed; got != tc.closes {
				t.Errorf("gate closes = %d, want %d", got, tc.closes)
			}
			// Whatever happened, the identity sits in the quarantine at most
			// once: forgetting it releases it exactly once.
			rig.r.Forget(0)
			want := []string(nil)
			if tc.parked || tc.limbo {
				want = []string{"release 0"}
			}
			if got := rig.p.take(); !reflect.DeepEqual(got, want) {
				t.Errorf("Forget hooks = %q, want %q", got, want)
			}
			if tc.parked || tc.limbo {
				if rig.gate.opened != rig.gate.closed {
					t.Errorf("gate opened %d, closed %d after Forget", rig.gate.opened, rig.gate.closed)
				}
			}
		})
	}

	t.Run("stale handles are ignored", func(t *testing.T) {
		rig := newRosterRig(t)
		h, _ := rig.accept(1, "A")
		rig.r.Closed(1, h, ctrlplane.CloseExpired)
		rig.r.Forget(0)
		rig.p.take()
		for _, handle := range []uint64{0, h, h + 1, 1 << 40} {
			rig.r.Closed(1, handle, ctrlplane.CloseExpired)
		}
		if got := rig.p.take(); got != nil {
			t.Errorf("hooks = %q, want none", got)
		}
	})
}

// TestRosterQuarantineOverflow fills the quarantine past its cap: the oldest
// identity is released for real and its id is the next one handed out.
func TestRosterQuarantineOverflow(t *testing.T) {
	rig := newRosterRig(t)
	for i := 0; i <= ctrlplane.LimboCap; i++ {
		h, _ := rig.accept(1, fmt.Sprint("client-", i))
		rig.p.take()
		rig.r.Closed(1, h, ctrlplane.CloseExpired)
		want := []string{fmt.Sprint("unplace ", i, " expired")}
		if i == ctrlplane.LimboCap {
			want = append(want, "release 0")
		}
		if got := rig.p.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("departure %d: hooks = %q, want %q", i, got, want)
		}
	}
	// Client 0 comes back too late: its identity is gone, and it is handed
	// the freed id as a new client. Client 1 is still in quarantine.
	if h, _ := rig.accept(1, "client-0"); h != 1 {
		t.Errorf("handle = %d, want 1 (the released id 0)", h)
	}
	if got := rig.p.take(); !reflect.DeepEqual(got, []string{"admit 0"}) {
		t.Errorf("hooks = %q, want a fresh admission under id 0", got)
	}
	if h, _ := rig.accept(1, "client-1"); h != 2 {
		t.Errorf("handle = %d, want 2 (client 1 reclaims its id)", h)
	}
	if got := rig.p.take(); !reflect.DeepEqual(got, []string{"readmit 1"}) {
		t.Errorf("hooks = %q, want a readmission of id 1", got)
	}
	if rig.gate.opened-rig.gate.closed != 2 {
		t.Errorf("gate opened %d, closed %d, want 2 live", rig.gate.opened, rig.gate.closed)
	}
}

// TestRosterMatchesErroredActive: a client that re-dials before the sweep
// has noticed its dead pair is the same client. Without the match it would
// get a fresh id, and the request it retries would execute a second time
// under an empty dedup window.
func TestRosterMatchesErroredActive(t *testing.T) {
	rig := newRosterRig(t)
	h, dead := rig.accept(1, "A")
	rig.nic.DestroyQP(dead)
	rig.p.take()

	// Another host presenting the same bytes is somebody else.
	if h2, _ := rig.accept(2, "A"); h2 == h {
		t.Fatalf("peer 2 was handed peer 1's identity")
	}
	rig.p.take()

	h3, _ := rig.accept(1, "A")
	if h3 != h {
		t.Fatalf("re-dial got handle %d, want %d (same identity)", h3, h)
	}
	if got, want := rig.p.take(), []string{"unplace 0 error", "readmit 0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("hooks = %q, want %q", got, want)
	}
	if live := rig.gate.opened - rig.gate.closed; live != 2 {
		t.Errorf("live charges = %d, want 2 (one per identity)", live)
	}
	// The sweep now reports the dead pair: an orphan, the identity has a
	// healthy QP.
	rig.r.Closed(1, h, ctrlplane.CloseError)
	if got := rig.p.take(); got != nil {
		t.Errorf("orphaned error pair ran hooks %q", got)
	}
	if m := rig.p.clients[0]; m.Limbo || m.Parked {
		t.Errorf("orphaned error pair moved the identity: parked=%v limbo=%v", m.Parked, m.Limbo)
	}
}

// TestRosterRejectsTenantMismatch: both reclaim paths refuse a dial that
// matches an identity but presents another tenant, and leave the identity
// as it was.
func TestRosterRejectsTenantMismatch(t *testing.T) {
	rig := newRosterRig(t)
	h, _ := rig.accept(1, "A")
	rig.r.Closed(1, h, ctrlplane.CloseLeave)
	rig.p.take()
	opened, admits := rig.gate.opened, rig.gate.admits

	forged := []byte{'A', 2}
	if err := rig.r.PreAdmit(1, "fake", forged); err == nil {
		t.Error("PreAdmit passed a reclaim under another tenant")
	}
	if _, _, err := rig.r.Accept(nil, 1, rig.qp(), forged); err == nil {
		t.Error("Accept reclaimed the identity under another tenant")
	}
	if _, _, err := rig.r.Resume(nil, 1, rig.qp(), forged, h); err == nil {
		t.Error("Resume reclaimed the identity under another tenant")
	}
	m := rig.p.clients[0]
	if !m.Parked || m.Tenant != 1 || rig.p.Slots() != 1 {
		t.Errorf("refused reclaim changed the roster: parked=%v tenant=%d slots=%d", m.Parked, m.Tenant, rig.p.Slots())
	}
	if got := rig.p.take(); got != nil {
		t.Errorf("refused reclaim ran hooks %q", got)
	}
	if rig.gate.opened != opened || rig.gate.admits != admits {
		t.Errorf("refused reclaim reached the gate")
	}

	if _, h2, err := rig.r.Resume(nil, 1, rig.qp(), []byte{'A', 1}, h); err != nil || h2 != h {
		t.Errorf("Resume under the owning tenant = handle %d, %v; want %d", h2, err, h)
	}
}
