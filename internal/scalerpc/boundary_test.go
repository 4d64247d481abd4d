package scalerpc

import (
	"fmt"
	"slices"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// The rotation changes only at a slice boundary (applyPending). The table
// issues every kind of change mid-slice and watches the groups between
// boundaries; the second test pins the id-reuse hazard that holding a
// departed client's id in the list until the boundary opens.

// boundaryRig is a server on host 0 with a control plane on every host:
// host 1 dials backdoor clients, host 2 managed ones. The server keeps time
// for a SyncGroup with an idle peer on host 3, so its slices end on the
// clock, and probes are off, so a solo scan never yields: a boundary is one
// step of the scheduler, and boundaries counts them exactly.
type boundaryRig struct {
	c       *cluster.Cluster
	s       *Server
	dir     *ctrlplane.Directory
	back    []*Conn  // backdoor clients, in connect order
	managed []*Conn  // managed clients, in join order
	execs   []string // request bodies handler 1 executed
}

func newBoundaryRig() *boundaryRig {
	c := cluster.New(cluster.Default(4))
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	cfg.GroupSize = 8
	cfg.TimeSlice = 400 * sim.Microsecond
	cfg.MaxClients = 64
	cfg.ProbeSlices = 0
	r := &boundaryRig{c: c, s: NewServer(c.Hosts[0], cfg), dir: ctrlplane.NewDirectory()}
	r.s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		r.execs = append(r.execs, string(req))
		return copy(out, req)
	})
	r.s.Start()
	peer := NewServer(c.Hosts[3], cfg)
	peer.Start()
	NewSyncGroup([]*Server{r.s, peer})
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, ctrlplane.DefaultConfig(), r.dir).Start()
	}
	r.s.BindControlPlane(r.dir.Manager(0))
	return r
}

// populate connects filler backdoor clients, three more, then joins two
// managed ones, and once they are placed runs prep on a host-2 thread; it
// returns two boundaries later. With 8 fillers the fillers are group 0 and
// the rest group 1.
func (r *boundaryRig) populate(t *testing.T, filler int, prep func(*boundaryRig, *host.Thread)) {
	t.Helper()
	done := false
	r.c.Hosts[2].Spawn("populate", func(th *host.Thread) {
		for i := 0; i < filler+3; i++ {
			r.back = append(r.back, r.s.Connect(r.c.Hosts[1], sim.NewSignal(r.c.Env)))
		}
		for i := 0; i < 2; i++ {
			m, err := r.s.Join(th, r.dir, sim.NewSignal(r.c.Env), false)
			if err != nil {
				t.Error(err)
				return
			}
			r.managed = append(r.managed, m)
		}
		r.nextBoundary(th)
		if prep != nil {
			prep(r, th)
		}
		r.nextBoundary(th)
		r.nextBoundary(th)
		done = true
	})
	r.runUntil(t, 20*sim.Millisecond, func() bool { return done })
}

// runUntil steps the simulation until cond holds.
func (r *boundaryRig) runUntil(t *testing.T, limit sim.Duration, cond func() bool) {
	t.Helper()
	deadline := r.c.Env.Now() + limit
	for !cond() {
		if r.c.Env.Now() >= deadline {
			t.Fatalf("condition not reached within %d ns", limit)
		}
		r.c.Env.RunUntil(r.c.Env.Now() + 20*sim.Microsecond)
	}
}

// boundaries counts the slice boundaries passed: switches, or the slices
// themselves while there is a single group.
func (r *boundaryRig) boundaries() uint64 {
	if len(r.s.groups) >= 2 {
		return r.s.Stats.Switches
	}
	return r.s.sliceNs.Count()
}

// nextBoundary blocks th until another boundary has passed.
func (r *boundaryRig) nextBoundary(th *host.Thread) {
	for b := r.boundaries(); r.boundaries() == b; {
		th.P.Sleep(r.s.Cfg.WarmupPollInterval)
	}
}

// rotationState is what a sample reads of the rotation.
type rotationState struct {
	boundaries, regroups uint64
	sizes                []int
}

func (r *boundaryRig) state() rotationState {
	return rotationState{r.boundaries(), r.s.Stats.Regroups, r.s.groupSizes()}
}

// grew is the effect of a change that adds n to the rotation's population.
func grew(n int) func(*boundaryRig, rotationState, rotationState) bool {
	sum := func(sizes []int) (s int) {
		for _, n := range sizes {
			s += n
		}
		return s
	}
	return func(_ *boundaryRig, before, after rotationState) bool { return sum(after.sizes) == sum(before.sizes)+n }
}

// replanned is the effect of a partition change: the policy rebuilt the
// groups, and every group but the frozen first is partition-pure.
func replanned(r *boundaryRig, before, after rotationState) bool {
	for _, grp := range r.s.groups[1:] {
		for _, cid := range grp {
			if r.s.clients[cid].demoted != r.s.clients[grp[0]].demoted {
				return false
			}
		}
	}
	return after.regroups > before.regroups
}

// TestRotationChangesOnlyAtBoundaries issues each kind of change mid-slice
// on a one-group and a two-group server while a sampler reads the groups
// every tick: between two boundaries neither the group sizes nor the
// regroup count may move, and the change must show after the next one.
func TestRotationChangesOnlyAtBoundaries(t *testing.T) {
	backdoor := func(r *boundaryRig, i int) *Conn { return r.back[len(r.back)-3+i] }
	rows := []struct {
		name   string
		host   int // the acting thread's host
		prep   func(*boundaryRig, *host.Thread)
		act    func(*boundaryRig, *host.Thread) error
		effect func(*boundaryRig, rotationState, rotationState) bool
	}{
		{"Connect", 1, nil, func(r *boundaryRig, th *host.Thread) error {
			r.s.Connect(th.Host, sim.NewSignal(r.c.Env))
			return nil
		}, grew(1)},
		{"ConnectTenant", 1, nil, func(r *boundaryRig, th *host.Thread) error {
			r.s.ConnectTenant(th.Host, sim.NewSignal(r.c.Env), 0, false)
			return nil
		}, grew(1)},
		{"Join", 2, nil, func(r *boundaryRig, th *host.Thread) error {
			_, err := r.s.Join(th, r.dir, sim.NewSignal(r.c.Env), false)
			return err
		}, grew(1)},
		{"Leave", 2, nil, func(r *boundaryRig, th *host.Thread) error {
			r.managed[0].Leave(th)
			return nil
		}, grew(-1)},
		{"Rejoin", 2, func(r *boundaryRig, th *host.Thread) { r.managed[1].Leave(th) },
			func(r *boundaryRig, th *host.Thread) error { return r.managed[1].Rejoin(th) }, grew(1)},
		{"Disconnect", 1, nil, func(r *boundaryRig, th *host.Thread) error {
			r.s.Disconnect(backdoor(r, 0).ID())
			return nil
		}, grew(-1)},
		// An eviction is a Disconnect by the failure scan.
		{"Reconnect after an eviction", 1, func(r *boundaryRig, th *host.Thread) { r.s.Disconnect(backdoor(r, 2).ID()) },
			func(r *boundaryRig, th *host.Thread) error {
				backdoor(r, 2).reconnect(th)
				return nil
			}, grew(1)},
		{"DemotePeer", 2, nil, func(r *boundaryRig, th *host.Thread) error {
			r.s.DemotePeer(2)
			return nil
		}, replanned},
		{"RestorePeer", 2, func(r *boundaryRig, th *host.Thread) { r.s.DemotePeer(2) },
			func(r *boundaryRig, th *host.Thread) error {
				r.s.RestorePeer(2)
				return nil
			}, replanned},
	}
	for _, groups := range []int{1, 2} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/%d groups", row.name, groups), func(t *testing.T) {
				r := newBoundaryRig()
				defer r.c.Close()
				r.populate(t, 8*(groups-1), row.prep)
				// A demotion on the two-group server isolates the suspects
				// into a group of their own.
				if n := len(r.s.groups); n != groups && (groups == 1 || n < 2) {
					t.Fatalf("population formed groups %v, want %d", r.s.groupSizes(), groups)
				}
				prev := r.state()
				r.c.Env.Spawn("sampler", func(p *sim.Proc) {
					for {
						p.Sleep(r.s.Cfg.WarmupPollInterval)
						st := r.state()
						if st.boundaries == prev.boundaries && (st.regroups != prev.regroups || !slices.Equal(st.sizes, prev.sizes)) {
							t.Errorf("at %d ns, between two boundaries, the rotation went %+v -> %+v", p.Now(), prev, st)
						}
						prev = st
					}
				})
				done := false
				r.c.Hosts[row.host].Spawn("act", func(th *host.Thread) {
					defer func() { done = true }()
					r.nextBoundary(th)
					th.P.Sleep(2 * r.s.Cfg.WarmupPollInterval)
					before := r.state()
					if err := row.act(r, th); err != nil {
						t.Error(err)
						return
					}
					r.nextBoundary(th)
					if after := r.state(); !row.effect(r, before, after) {
						t.Errorf("the next boundary took the rotation %+v -> %+v", before, after)
					}
				})
				r.runUntil(t, 20*sim.Millisecond, func() bool { return done })
			})
		}
	}
}

// TestReissuedIDWaitsForTheBoundary: a managed client whose request was
// fetched into the warmup pool leaves, and its id is released and reissued
// to a new Join, all within one slice. Until the boundary the newcomer is a
// joiner like any other: the departed client's listing is skipped, never
// inherited, so the newcomer gets no zone in that group. At the boundary
// the listing goes and the policy places the newcomer at its group's tail.
// The departed client's fetched frame never executes, so the newcomer's
// first request, under the same request id, is answered with its own bytes.
func TestReissuedIDWaitsForTheBoundary(t *testing.T) {
	r := newBoundaryRig()
	defer r.c.Close()
	r.populate(t, 8, nil)
	a := r.managed[0]
	id := a.ID()
	got := ""
	r.c.Hosts[2].Spawn("reissue", func(th *host.Thread) {
		defer func() {
			if got == "" {
				got = "<failed>"
			}
		}()
		await := func(cond func() bool) {
			for !cond() {
				th.P.Sleep(sim.Microsecond)
			}
		}
		// Start a slice in which a's group warms.
		r.nextBoundary(th)
		for (r.s.cur+1)%len(r.s.groups) != r.s.clients[id].group {
			r.nextBoundary(th)
		}
		slice, home := r.boundaries(), r.s.clients[id].group
		if !a.TrySend(th, 1, []byte("from-A"), 1) {
			t.Error("a could not stage its request")
			return
		}
		a.Poll(th, func(rpccore.Response) {}) // publishes the endpoint entry
		await(func() bool { return r.s.clients[id].fetchedUpTo == 1 })
		th.P.Sleep(r.s.Cfg.WarmupPollInterval) // the READ lands
		a.Leave(th)
		await(func() bool { return r.s.clients[id].Parked })
		r.s.Forget(id)
		b, err := r.s.Join(th, r.dir, sim.NewSignal(r.c.Env), false)
		if err != nil {
			t.Error(err)
			return
		}
		if b.ID() != id {
			t.Errorf("the join got id %d, want the released %d", b.ID(), id)
		}
		if r.boundaries() != slice {
			t.Error("the reissue spanned a boundary; the rig's slice is too short")
			return
		}
		cs := r.s.clients[id]
		if cs.group != -1 || !slices.Contains(r.s.groups[home], id) || r.s.inGroup(home, id) != nil {
			t.Errorf("mid-slice: newcomer's group %d, listing %v; want a joiner, and the departed listing held but skipped", cs.group, r.s.groups[home])
		}
		if !b.TrySend(th, 1, []byte("from-B"), 1) {
			t.Error("b could not stage its request")
			return
		}
		b.Poll(th, func(rpccore.Response) {})
		th.P.Sleep(2 * r.s.Cfg.WarmupPollInterval)
		if cs.zones != [2]int{-1, -1} {
			t.Errorf("mid-slice: the newcomer holds zone %d, warm zone %d in the departed client's group", cs.zones[processing], cs.zones[warming])
		}
		r.nextBoundary(th)
		listed := 0
		for _, grp := range r.s.groups {
			for _, cid := range grp {
				if cid == id {
					listed++
				}
			}
		}
		if g := cs.group; listed != 1 || g < 0 || r.s.groups[g][len(r.s.groups[g])-1] != id {
			t.Errorf("after the boundary: id %d listed %d times, newcomer in group %d of %v; want once, at its group's tail", id, listed, g, r.s.groups)
		}
		for deadline := th.P.Now() + 10*sim.Millisecond; got == "" && th.P.Now() < deadline; {
			b.Poll(th, func(resp rpccore.Response) { got = string(resp.Payload) })
			th.WaitSignal(b.sig, 10*sim.Microsecond)
		}
	})
	r.runUntil(t, 20*sim.Millisecond, func() bool { return got != "" })
	if got != "from-B" {
		t.Errorf("the newcomer's request was answered %q, want %q", got, "from-B")
	}
	if slices.Contains(r.execs, "from-A") {
		t.Error("the departed client's fetched frame was executed after its id was reissued")
	}
}

// TestSingleGroupKeepsZonesAcrossADrop: on a one-group server a member
// leaves and a newcomer joins within one slice. With a single group no
// context_switch_event ever tells a client to restage, so a member that
// writes its zone in place must keep that zone across the boundary that
// drops the departed id, and the newcomer must be bound to a free zone.
// Every request a client staged is then executed once and answered with its
// own bytes, the shifted-down member's included.
func TestSingleGroupKeepsZonesAcrossADrop(t *testing.T) {
	r := newBoundaryRig()
	defer r.c.Close()
	r.populate(t, 0, nil)
	if len(r.s.groups) != 1 {
		t.Fatalf("population formed groups %v, want one", r.s.groupSizes())
	}
	leaver, stayer := r.managed[0], r.managed[1]
	var sent []string
	answers := map[string]string{}
	done := false
	r.c.Hosts[2].Spawn("shift", func(th *host.Thread) {
		defer func() { done = true }()
		// call stages one request on c and waits for its answer.
		call := func(c *Conn, body string) {
			if !c.TrySend(th, 1, []byte(body), uint64(len(sent)+1)) {
				t.Errorf("%s: could not stage the request", body)
				return
			}
			sent = append(sent, body)
			for deadline := th.P.Now() + 5*sim.Millisecond; answers[body] == "" && th.P.Now() < deadline; {
				c.Poll(th, func(resp rpccore.Response) { answers[body] = string(resp.Payload) })
				th.WaitSignal(c.sig, 10*sim.Microsecond)
			}
		}
		// The stayer, listed after the leaver, writes its zone in place.
		call(stayer, "stayer-before")
		if stayer.State() != StateProcess {
			t.Errorf("stayer in state %v after its first answer, want PROCESS", stayer.State())
		}
		zone := r.s.clients[stayer.ID()].zones[processing]
		r.nextBoundary(th)
		slice := r.boundaries()
		leaver.Leave(th)
		newcomer, err := r.s.Join(th, r.dir, sim.NewSignal(r.c.Env), false)
		if err != nil {
			t.Error(err)
			return
		}
		if r.boundaries() != slice {
			t.Error("the leave and the join spanned a boundary; the rig's slice is too short")
			return
		}
		r.nextBoundary(th)
		th.P.Sleep(2 * r.s.Cfg.WarmupPollInterval) // the zones are bound
		if got := r.s.clients[stayer.ID()].zones[processing]; got != zone {
			t.Errorf("the stayer's zone went %d -> %d across the drop", zone, got)
		}
		if got := r.s.clients[newcomer.ID()].zones[processing]; got < 0 || got == zone {
			t.Errorf("the newcomer was bound to zone %d, want a free one (the stayer holds %d)", got, zone)
		}
		call(stayer, "stayer-after")
		call(newcomer, "newcomer")
	})
	r.runUntil(t, 40*sim.Millisecond, func() bool { return done })
	for _, body := range sent {
		if answers[body] != body {
			t.Errorf("request %q was answered %q", body, answers[body])
		}
		execs := 0
		for _, e := range r.execs {
			if e == body {
				execs++
			}
		}
		if execs != 1 {
			t.Errorf("request %q executed %d times, want once", body, execs)
		}
	}
}
