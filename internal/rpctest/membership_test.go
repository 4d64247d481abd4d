package rpctest_test

import (
	"bytes"
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// member is what both managed transports' connections offer on top of
// rpccore.Conn.
type member interface {
	rpccore.Conn
	ID() uint16
	Leave(t *host.Thread)
	Rejoin(t *host.Thread) error
	Left() bool
}

// managedServer is one managed transport's server, bound to the control
// plane on host 0.
type managedServer struct {
	join    func(t *host.Thread, sig *sim.Signal) (member, error)
	forget  func(id uint16)
	setGate func(g scalerpc.TenantAuthority)
}

type managedTransport struct {
	name string
	// parkedCharge is how many gate charges a gracefully parked client still
	// holds: RawWrite's zone stays mapped and swept, so its tenant keeps
	// paying for it; a parked ScaleRPC client occupies nothing.
	parkedCharge int
	service      string
	build        func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer
}

func managedTransports() []managedTransport {
	return []managedTransport{
		{"scalerpc", 0, scalerpc.ServiceName, func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer {
			cfg := scalerpc.DefaultServerConfig()
			cfg.Workers = 2
			cfg.GroupSize = 8
			cfg.TimeSlice = 50 * sim.Microsecond
			cfg.BlocksPerClient = 8
			// No liveness probes: an idle client of a crashed host is given up
			// by its lease alone, not by whichever of the two notices first.
			cfg.Failure.ProbeSlices = 0
			s := scalerpc.NewServer(c.Hosts[0], cfg)
			reg(s)
			s.Start()
			s.BindControlPlane(dir.Manager(0))
			return managedServer{
				join: func(t *host.Thread, sig *sim.Signal) (member, error) {
					return s.Join(t, dir, sig, false)
				},
				forget:  s.Forget,
				setGate: s.SetTenantAuthority,
			}
		}},
		{"rawwrite", 1, rawrpc.ServiceName, func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer {
			cfg := rawrpc.DefaultServerConfig()
			cfg.BlocksPerClient = 8
			cfg.MaxClients = 128
			s := rawrpc.NewServer(c.Hosts[0], cfg)
			reg(s)
			s.Start()
			s.BindControlPlane(dir.Manager(0))
			return managedServer{
				join: func(t *host.Thread, sig *sim.Signal) (member, error) {
					return s.Join(t, dir, sig)
				},
				forget:  s.Forget,
				setGate: func(g scalerpc.TenantAuthority) { s.SetTenantGate(g) },
			}
		}},
	}
}

// plane starts a control-plane manager on every host.
func plane(c *cluster.Cluster, cfg ctrlplane.Config) *ctrlplane.Directory {
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	return dir
}

// call sends one request on handler 1 and waits for its answer, for at most
// 20 ms of virtual time.
func call(th *host.Thread, conn rpccore.Conn, sig *sim.Signal, payload string, reqID uint64) string {
	deadline := th.P.Now() + 20*sim.Millisecond
	for !conn.TrySend(th, 1, []byte(payload), reqID) {
		if th.P.Now() > deadline {
			return "<send-timeout>"
		}
		conn.Poll(th, func(rpccore.Response) {})
		sig.WaitTimeout(th.P, 10*sim.Microsecond)
	}
	return await(th, conn, sig, reqID, deadline)
}

// await polls until reqID's answer arrives or the deadline passes.
func await(th *host.Thread, conn rpccore.Conn, sig *sim.Signal, reqID uint64, deadline sim.Time) string {
	got, done := "", false
	for !done {
		if th.P.Now() > deadline {
			return "<poll-timeout>"
		}
		conn.Poll(th, func(r rpccore.Response) {
			if r.ReqID == reqID {
				got, done = string(r.Payload), true
			}
		})
		if !done {
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
	}
	return got
}

// TestIdentityIsPerHost is the two-host aliasing reproduction. Every host's
// memory registry starts at the same address and key, so clients on two
// hosts present byte-identical region tuples; the dialing peer has to be
// part of the identity or the second client is handed the first one's
// parked id and, with it, the first one's dedup window.
func TestIdentityIsPerHost(t *testing.T) {
	for _, tr := range managedTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(3))
			defer c.Close()
			srv := tr.build(c, plane(c, ctrlplane.DefaultConfig()), registerEcho)

			phase := 0
			sigA, sigB := sim.NewSignal(c.Env), sim.NewSignal(c.Env)
			var a member
			c.Hosts[1].Spawn("A", func(th *host.Thread) {
				var err error
				if a, err = srv.join(th, sigA); err != nil {
					t.Error(err)
					phase = -1
					return
				}
				if got := call(th, a, sigA, "from-A", 7); got != "from-A" {
					t.Errorf("A's call = %q", got)
				}
				a.Leave(th)
				phase = 1
			})
			runUntil(c, 100*sim.Millisecond, func() bool { return phase != 0 })
			if phase != 1 {
				t.Fatal("client A failed")
			}

			idA := a.ID()
			c.Hosts[2].Spawn("B", func(th *host.Thread) {
				b, err := srv.join(th, sigB)
				if err != nil {
					t.Error(err)
					phase = -1
					return
				}
				if b.ID() == idA {
					t.Errorf("B on host 2 was handed A's parked id %d", idA)
				}
				if got := call(th, b, sigB, "hello-B", 1); got != "hello-B" {
					t.Errorf("B's first call = %q, want %q", got, "hello-B")
				}
				b.Leave(th)
				if err := b.Rejoin(th); err != nil {
					t.Error(err)
				}
				if got := call(th, b, sigB, "from-B", 7); got != "from-B" {
					t.Errorf("B's reqID 7 = %q, want %q (answered out of A's dedup window?)", got, "from-B")
				}
				phase = 2
			})
			runUntil(c, 200*sim.Millisecond, func() bool { return phase != 1 })
			if phase != 2 {
				t.Fatal("client B failed")
			}

			// A comes back to its own id and its own window: the duplicate of
			// reqID 7 is answered from the window, not executed again.
			c.Hosts[1].Spawn("A2", func(th *host.Thread) {
				if err := a.Rejoin(th); err != nil {
					t.Error(err)
				}
				if a.ID() != idA {
					t.Errorf("A's id changed across rejoin: %d -> %d", idA, a.ID())
				}
				if got := call(th, a, sigA, "dup", 7); got != "from-A" {
					t.Errorf("A's duplicate reqID 7 = %q, want %q from its dedup window", got, "from-A")
				}
				phase = 3
			})
			runUntil(c, 300*sim.Millisecond, func() bool { return phase != 2 })
			if phase != 3 {
				t.Fatal("client A's return failed")
			}
		})
	}
}

// limboCap is the roster's quarantine bound (unexported in ctrlplane).
const limboCap = 64

// pairGate admits everyone and counts the open/close pairing.
type pairGate struct{ opened, closed int }

func (g *pairGate) AdmitConn(uint16, bool) (bool, error) { return false, nil }
func (g *pairGate) ConnOpened(uint16, bool)              { g.opened++ }
func (g *pairGate) ConnClosed(uint16, bool)              { g.closed++ }
func (g *pairGate) SliceWeight(uint16) float64           { return 1 }
func (g *pairGate) GroupClass(uint16) int                { return 0 }
func (g *pairGate) SliceAccount(uint16, uint64, uint64)  {}

// TestMembershipLifecycle runs one script against both managed transports
// over the real control plane: the subject client X lives on host 1, a
// bystander Y presenting the very same region tuple on host 2. After every
// step it checks X's id, the handle the manager recorded for it (id+1) and
// the gate's live charges.
func TestMembershipLifecycle(t *testing.T) {
	for _, tr := range managedTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(3))
			defer c.Close()
			faultPlane := c.InstallFaults(&faults.Scenario{Name: "lifecycle"})
			cfg := ctrlplane.DefaultConfig()
			cfg.IdleTimeout = 200 * sim.Microsecond
			dir := plane(c, cfg)
			mgr := dir.Manager(0)

			// Handler 1 echoes and counts executions per request payload.
			execs := map[string]int{}
			srv := tr.build(c, dir, func(s rpccore.Server) {
				s.Register(1, func(th *host.Thread, id uint16, req, out []byte) int {
					execs[string(req)]++
					th.Work(100)
					return copy(out, req)
				})
			})
			gate := &pairGate{}
			srv.setGate(gate)

			sigX, sigY := sim.NewSignal(c.Env), sim.NewSignal(c.Env)
			var x, y member
			var idX uint16
			// check asserts the state after one step: X's id, the handle of
			// the manager's latest admission from host 1, and the live charges
			// (Y's is always one of them).
			check := func(step string, wantKind string, liveX int) {
				t.Helper()
				if x.ID() != idX {
					t.Errorf("%s: X's id = %d, want %d", step, x.ID(), idX)
				}
				var last ctrlplane.Event
				for _, e := range mgr.Events {
					if e.Peer == 1 && (e.Kind == "accept" || e.Kind == "resume") {
						last = e
					}
				}
				if last.Kind != wantKind || last.Handle != uint64(idX)+1 {
					t.Errorf("%s: last admission from host 1 = %s handle %d, want %s handle %d",
						step, last.Kind, last.Handle, wantKind, uint64(idX)+1)
				}
				if live := gate.opened - gate.closed; live != 1+liveX {
					t.Errorf("%s: live charges = %d (opened %d, closed %d), want %d",
						step, live, gate.opened, gate.closed, 1+liveX)
				}
			}
			// recoverCall sends a request on a connection whose server half is
			// gone, the way a retrying caller would: once the dead QP shows,
			// rejoin and re-offer.
			recoverCall := func(th *host.Thread, payload string, reqID uint64) string {
				deadline := th.P.Now() + 20*sim.Millisecond
				for !x.TrySend(th, 1, []byte(payload), reqID) {
					x.Poll(th, func(rpccore.Response) {})
					sigX.WaitTimeout(th.P, 10*sim.Microsecond)
				}
				for th.P.Now() < deadline {
					if got := await(th, x, sigX, reqID, th.P.Now()+200*sim.Microsecond); got != "<poll-timeout>" {
						return got
					}
					if err := x.Rejoin(th); err != nil {
						t.Errorf("rejoin: %v", err)
					}
					x.(rpccore.Resender).Resend(th, reqID)
				}
				return "<poll-timeout>"
			}
			// crash takes host 1 down once it has gone quiet and brings it back
			// when the server has given up gone of its connections in all,
			// whether the lease lapsed first or a QP the server was still
			// writing to errored first.
			crash := func(th *host.Thread, gone uint64) {
				th.P.Sleep(sim.Millisecond)
				faultPlane.CrashNode(1)
				for mgr.Stats.LeaseExpiries+mgr.Stats.Evictions < gone && th.P.Now() < sim.Second {
					th.P.Sleep(100 * sim.Microsecond)
				}
				faultPlane.RestartNode(1)
			}

			phase := 0
			c.Hosts[2].Spawn("Y", func(th *host.Thread) {
				var err error
				if y, err = srv.join(th, sigY); err != nil {
					t.Error(err)
					phase = -1
					return
				}
				phase = 1
			})
			runUntil(c, 100*sim.Millisecond, func() bool { return phase != 0 })
			if phase != 1 {
				t.Fatal("bystander failed to join")
			}
			idY := y.ID()

			c.Hosts[1].Spawn("X", func(th *host.Thread) {
				defer func() { phase = 2 }()
				var err error
				if x, err = srv.join(th, sigX); err != nil {
					t.Error(err)
					return
				}
				idX = x.ID()
				if idX == idY {
					t.Errorf("X and Y share id %d", idX)
				}
				check("join", "accept", 1)

				if got := call(th, x, sigX, "one", 1); got != "one" {
					t.Errorf("call = %q", got)
				}

				x.Leave(th)
				th.P.Sleep(50 * sim.Microsecond)
				check("leave", "accept", tr.parkedCharge)

				if err := x.Rejoin(th); err != nil {
					t.Error(err)
				}
				check("cached resume", "resume", 1)
				if got := call(th, x, sigX, "two", 2); got != "two" {
					t.Errorf("call after resume = %q", got)
				}

				// Idle teardown: a request executes but its answer is not
				// collected before X leaves; the parked pair ages out and the
				// identity moves to quarantine, giving up its charge.
				if !x.TrySend(th, 1, []byte("staged"), 3) {
					t.Error("TrySend failed")
				}
				th.P.Sleep(5 * sim.Millisecond)
				x.Leave(th)
				th.P.Sleep(10 * cfg.IdleTimeout)
				if mgr.Stats.IdleTeardowns == 0 {
					t.Error("parked pair was never idle-torn-down")
				}
				check("idle teardown", "resume", 0)

				// Cold reclaim: same id, and the staged request is answered
				// without running a second time.
				if err := x.Rejoin(th); err != nil {
					t.Error(err)
				}
				check("cold reclaim", "accept", 1)
				if got := await(th, x, sigX, 3, th.P.Now()+20*sim.Millisecond); got != "staged" {
					t.Errorf("staged request's answer = %q", got)
				}
				if execs["staged"] != 1 {
					t.Errorf("staged request executed %d times, want 1", execs["staged"])
				}

				// Lease expiry quarantines the active identity; X finds its
				// dead QP on the next request and reclaims the id.
				crash(th, 1)
				check("lease expiry", "accept", 0)
				if got := recoverCall(th, "four", 4); got != "four" {
					t.Errorf("call across the expiry = %q", got)
				}
				check("reclaim after expiry", "accept", 1)

				// Overflow: X expires again and stays away while limboCap
				// fillers join and go the same way; the last of them pushes X,
				// the oldest in the quarantine, out for good.
				crash(th, 2)
				if mgr.Stats.LeaseExpiries != 2 {
					t.Errorf("lease expiries = %d, want 2 (X, twice)", mgr.Stats.LeaseExpiries)
				}
				for i := 0; i < limboCap; i++ {
					if _, err := srv.join(th, sim.NewSignal(c.Env)); err != nil {
						t.Fatalf("filler %d: %v", i, err)
					}
				}
				if live := gate.opened - gate.closed; live != 1+limboCap {
					t.Errorf("live charges with fillers = %d, want %d", live, 1+limboCap)
				}
				crash(th, 2+limboCap)
				if live := gate.opened - gate.closed; live != 1 {
					t.Errorf("live charges after the mass departure = %d, want 1", live)
				}
				// X is a new client now, under the id the overflow freed, and
				// its dedup window went with the identity: the duplicate of
				// request 4 executes again.
				if got := recoverCall(th, "four", 4); got != "four" {
					t.Errorf("call after the overflow = %q", got)
				}
				check("readmission after overflow", "accept", 1)
				if execs["four"] != 2 {
					t.Errorf("request 4 executed %d times, want 2 (window dropped with the identity)", execs["four"])
				}

				// Forget releases a parked identity at once: charge, id and
				// window. The cached pair X then resumes on matches nobody, so
				// the dial falls back to a cold admission.
				x.Leave(th)
				th.P.Sleep(50 * sim.Microsecond)
				srv.forget(idX)
				if live := gate.opened - gate.closed; live != 1 {
					t.Errorf("live charges after Forget = %d, want 1", live)
				}
				if err := x.Rejoin(th); err != nil {
					t.Error(err)
				}
				check("rejoin after Forget", "accept", 1)
				if got := call(th, x, sigX, "four", 4); got != "four" || execs["four"] != 3 {
					t.Errorf("call after Forget = %q, executed %d times, want 3", got, execs["four"])
				}
			})
			runUntil(c, 2*sim.Second, func() bool { return phase != 1 })
			if phase != 2 {
				t.Fatal("script did not finish")
			}

			// The bystander kept its id and its service throughout.
			c.Hosts[2].Spawn("Y2", func(th *host.Thread) {
				if got := call(th, y, sigY, "still-here", 1); got != "still-here" || y.ID() != idY {
					t.Errorf("bystander: call = %q, id %d (was %d)", got, y.ID(), idY)
				}
				phase = 3
			})
			runUntil(c, 3*sim.Second, func() bool { return phase != 2 })
		})
	}
}

// FuzzAdmitPayload dials both managed transports with arbitrary join
// payloads, through the real handshake: the manager's pre-admission gate,
// then Resume on the pair a parked client left in the cache, then — that
// refused — Accept on a cold pair. Nothing may panic; a payload of the wrong
// length is refused; and a refused dial leaves the roster as it was: the
// parked client comes back to its id and its dedup window, and the next new
// client gets the next id.
func FuzzAdmitPayload(f *testing.F) {
	for _, n := range []int{0, 1, 13, 14, 15, 26, 27, 28, 64, 200} {
		f.Add(make([]byte, n))
		f.Add(bytes.Repeat([]byte{0xFF}, n))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 200 {
			payload = payload[:200] // a control message is one 256-byte slot
		}
		for _, tr := range managedTransports() {
			c := cluster.New(cluster.Default(2))
			dir := plane(c, ctrlplane.DefaultConfig())
			execs := 0
			srv := tr.build(c, dir, func(s rpccore.Server) {
				s.Register(1, func(th *host.Thread, id uint16, req, out []byte) int {
					execs++
					return copy(out, req)
				})
			})
			srv.setGate(&pairGate{})
			done := false
			c.Hosts[1].Spawn("fuzz", func(th *host.Thread) {
				defer func() { done = true }()
				sig := sim.NewSignal(c.Env)
				x, err := srv.join(th, sig)
				if err != nil {
					t.Error(err)
					return
				}
				id := x.ID()
				if got := call(th, x, sig, "x", 1); got != "x" {
					t.Errorf("%s: call = %q", tr.name, got)
				}
				x.Leave(th)

				wellFormed := len(payload) == 27 && tr.name == "scalerpc" || len(payload) == 14 && tr.name == "rawwrite"
				_, err = dir.Manager(1).Dial(th, 0, tr.service, payload)
				if err == nil {
					if !wellFormed {
						t.Errorf("%s: a %d-byte join payload was admitted", tr.name, len(payload))
					}
					return // a well-formed stranger: admitted as a new client
				}

				if err := x.Rejoin(th); err != nil || x.ID() != id {
					t.Errorf("%s: rejoin after the refused dial: id %d (was %d), %v", tr.name, x.ID(), id, err)
				}
				if got := call(th, x, sig, "dup", 1); got != "x" || execs != 1 {
					t.Errorf("%s: duplicate after the refused dial = %q, %d executions", tr.name, got, execs)
				}
				z, err := srv.join(th, sim.NewSignal(c.Env))
				if err != nil || z.ID() != id+1 {
					t.Errorf("%s: next client after the refused dial: %v, %v", tr.name, z, err)
				}
			})
			runUntil(c, 100*sim.Millisecond, func() bool { return done })
			c.Close()
			if !done {
				t.Errorf("%s: fuzz script did not finish", tr.name)
			}
		}
	})
}
