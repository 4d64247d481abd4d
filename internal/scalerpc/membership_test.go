package scalerpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// stepUntil drives the simulation in small increments until cond holds or
// limit elapses (server procs run forever, so Env.Run never idles).
func stepUntil(t *testing.T, c *cluster.Cluster, limit sim.Duration, cond func() bool) {
	t.Helper()
	deadline := c.Env.Now() + limit
	for !cond() {
		if c.Env.Now() >= deadline {
			t.Fatalf("condition not reached within %d ns", limit)
		}
		c.Env.RunUntil(c.Env.Now() + 20_000)
	}
}

// echoOnce sends one echo request and polls until its response arrives.
func echoOnce(t *testing.T, th *host.Thread, conn *Conn, sig *sim.Signal, payload string, reqID uint64) string {
	t.Helper()
	deadline := th.P.Now() + 20*sim.Millisecond
	for !conn.TrySend(th, 1, []byte(payload), reqID) {
		if th.P.Now() > deadline {
			return "<send-timeout>"
		}
		conn.Poll(th, func(rpccore.Response) {})
		sig.WaitTimeout(th.P, 10*sim.Microsecond)
	}
	got := ""
	for got == "" {
		if th.P.Now() > deadline {
			return "<poll-timeout>"
		}
		conn.Poll(th, func(r rpccore.Response) {
			if r.ReqID == reqID {
				got = string(r.Payload)
			}
		})
		if got == "" {
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
	}
	return got
}

// bindPlane installs control-plane managers with cfg on every host and
// binds the server on host 0.
// idleTimeout is how long the control plane keeps a parked connection
// (unexported in ctrlplane).
const idleTimeout = 5 * sim.Millisecond

func bindPlane(c *cluster.Cluster, s *Server, cfg ctrlplane.Config) *ctrlplane.Directory {
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	s.BindControlPlane(dir.Manager(0))
	return dir
}

// TestJoinLeaveRejoinResume covers the happy elastic-membership path: an
// in-band join, traffic, a graceful leave that parks the pair in the
// connection cache, and a rejoin that resumes it under the same id.
func TestJoinLeaveRejoinResume(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	dir := bindPlane(c, s, ctrlplane.DefaultConfig())

	sig := sim.NewSignal(c.Env)
	phase := 0
	var id0, id1 uint16
	c.Hosts[1].Spawn("member", func(th *host.Thread) {
		conn, err := s.Join(th, dir, sig, false)
		if err != nil {
			t.Error(err)
			phase = -1
			return
		}
		id0 = conn.ID()
		if got := echoOnce(t, th, conn, sig, "first", 1); got != "first" {
			t.Errorf("echo before leave = %q", got)
		}
		conn.Leave(th)
		if !conn.Left() {
			t.Error("conn not marked departed after Leave")
		}
		if conn.TrySend(th, 1, []byte("x"), 99) {
			t.Error("TrySend succeeded while departed")
		}
		if conn.Poll(th, func(rpccore.Response) {}) != 0 {
			t.Error("Poll made progress while departed")
		}
		th.P.Sleep(200 * sim.Microsecond)
		if err := conn.Rejoin(th); err != nil {
			t.Error(err)
			phase = -1
			return
		}
		id1 = conn.ID()
		if got := echoOnce(t, th, conn, sig, "second", 2); got != "second" {
			t.Errorf("echo after rejoin = %q", got)
		}
		phase = 1
	})
	stepUntil(t, c, 100*sim.Millisecond, func() bool { return phase != 0 })
	if phase != 1 {
		t.Fatal("member thread failed")
	}
	if id1 != id0 {
		t.Fatalf("id changed across cached rejoin: %d -> %d", id0, id1)
	}
	if s.Stats.Joins != 2 || s.Stats.Leaves != 1 {
		t.Fatalf("joins=%d leaves=%d, want 2/1", s.Stats.Joins, s.Stats.Leaves)
	}
	mgr := dir.Manager(0)
	if mgr.Stats.Resumes != 1 {
		t.Fatalf("manager resumes = %d, want 1 (rejoin must hit the cache)", mgr.Stats.Resumes)
	}
}

// TestColdRejoinRestampsStagedRequests forces the cache-miss rejoin: the
// parked entry is idle-torn-down and its quarantined identity explicitly
// Forgotten (releasing the id, which a second client takes), so Rejoin
// runs a cold handshake under a fresh id and the staged unanswered
// request must be restamped before it is re-offered.
func TestColdRejoinRestampsStagedRequests(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	dir := bindPlane(c, s, ctrlplane.DefaultConfig())

	sig := sim.NewSignal(c.Env)
	phase := 0
	var oldID, newID uint16
	c.Hosts[1].Spawn("member", func(th *host.Thread) {
		a, err := s.Join(th, dir, sig, false)
		if err != nil {
			t.Error(err)
			phase = -1
			return
		}
		oldID = a.ID()
		// Stage a request and depart before it can be served: the slot
		// stays busy across the leave.
		if !a.TrySend(th, 1, []byte("survivor"), 7) {
			t.Error("TrySend failed")
			phase = -1
			return
		}
		a.Leave(th)
		// Wait out the idle teardown: the parked pair is destroyed and
		// the identity moves to quarantine. Forget releases it so the id
		// returns to the free list.
		th.P.Sleep(10 * idleTimeout)
		s.Forget(oldID)
		// A second client takes the freed id.
		b, err := s.Join(th, dir, sim.NewSignal(c.Env), false)
		if err != nil {
			t.Error(err)
			phase = -1
			return
		}
		if b.ID() != oldID {
			t.Errorf("second join got id %d, want freed id %d", b.ID(), oldID)
		}
		// Rejoin is now a cold handshake under a fresh id; the staged
		// request is restamped and still gets answered.
		if err := a.Rejoin(th); err != nil {
			t.Error(err)
			phase = -1
			return
		}
		newID = a.ID()
		got := ""
		deadline := th.P.Now() + 20*sim.Millisecond
		for got == "" && th.P.Now() < deadline {
			a.Poll(th, func(r rpccore.Response) {
				if r.ReqID == 7 {
					got = string(r.Payload)
				}
			})
			if got == "" {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
		if got != "survivor" {
			t.Errorf("staged request answer = %q, want %q", got, "survivor")
		}
		phase = 1
	})
	stepUntil(t, c, 200*sim.Millisecond, func() bool { return phase != 0 })
	if phase != 1 {
		t.Fatal("member thread failed")
	}
	if newID == oldID {
		t.Fatalf("cold rejoin kept id %d; want a fresh id", oldID)
	}
	if s.Stats.Joins != 3 {
		t.Fatalf("joins = %d, want 3 (join, second join, cold rejoin)", s.Stats.Joins)
	}
	if dir.Manager(0).Stats.IdleTeardowns == 0 {
		t.Fatal("parked pair was never idle-torn-down")
	}
}

// TestQuarantineReclaimKeepsIdentity covers the crash-recovery contract:
// when a parked pair is idle-torn-down without an explicit Forget, the
// identity is quarantined rather than freed, and a cold rejoin that
// matches the client's registered regions reclaims the same id. The
// staged request — already executed before the departure — is answered
// from the retained dedup window without running the handler again.
func TestQuarantineReclaimKeepsIdentity(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	execs := 0
	s.Register(2, func(th *host.Thread, clientID uint16, req []byte, out []byte) int {
		execs++
		th.Work(100)
		return copy(out, req)
	})
	dir := bindPlane(c, s, ctrlplane.DefaultConfig())

	sig := sim.NewSignal(c.Env)
	phase := 0
	var oldID, newID uint16
	c.Hosts[1].Spawn("member", func(th *host.Thread) {
		a, err := s.Join(th, dir, sig, false)
		if err != nil {
			t.Error(err)
			phase = -1
			return
		}
		oldID = a.ID()
		// Let one request complete so its reply sits in the dedup window,
		// then depart without consuming the answer.
		if !a.TrySend(th, 2, []byte("phoenix"), 11) {
			t.Error("TrySend failed")
			phase = -1
			return
		}
		th.P.Sleep(5 * sim.Millisecond)
		a.Leave(th)
		// Idle teardown destroys the parked pair; the identity moves to
		// quarantine with its id and dedup window intact.
		th.P.Sleep(10 * idleTimeout)
		if err := a.Rejoin(th); err != nil {
			t.Error(err)
			phase = -1
			return
		}
		newID = a.ID()
		got := ""
		deadline := th.P.Now() + 20*sim.Millisecond
		for got == "" && th.P.Now() < deadline {
			a.Poll(th, func(r rpccore.Response) {
				if r.ReqID == 11 {
					got = string(r.Payload)
				}
			})
			if got == "" {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
		if got != "phoenix" {
			t.Errorf("staged request answer = %q, want %q", got, "phoenix")
		}
		phase = 1
	})
	stepUntil(t, c, 200*sim.Millisecond, func() bool { return phase != 0 })
	if phase != 1 {
		t.Fatal("member thread failed")
	}
	if newID != oldID {
		t.Fatalf("quarantine reclaim changed id %d -> %d; want the same identity", oldID, newID)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 (replay must come from the dedup window)", execs)
	}
	if dir.Manager(0).Stats.IdleTeardowns == 0 {
		t.Fatal("parked pair was never idle-torn-down")
	}
}

// TestChurnEventLogDeterministic runs the same seeded churn schedule twice
// and requires bit-identical control-plane event logs — the per-seed
// determinism bar for join/leave/evict ordering.
func TestChurnEventLogDeterministic(t *testing.T) {
	run := func() []ctrlplane.Event {
		c, s := buildServer(3, nil)
		defer c.Close()
		dir := bindPlane(c, s, ctrlplane.DefaultConfig())

		rng := stats.NewRNG(42)
		for i := 0; i < 6; i++ {
			i := i
			hi := 1 + i%2
			leaveAt := sim.Time(200_000 + rng.Intn(400_000))
			down := sim.Duration(100_000 + rng.Intn(400_000))
			sig := sim.NewSignal(c.Env)
			c.Hosts[hi].Spawn("member", func(th *host.Thread) {
				conn, err := s.Join(th, dir, sig, false)
				if err != nil {
					t.Error(err)
					return
				}
				req := uint64(i+1) << 32
				for th.P.Now() < leaveAt {
					req++
					conn.TrySend(th, 1, []byte("ping"), req)
					conn.Poll(th, func(rpccore.Response) {})
					sig.WaitTimeout(th.P, 20*sim.Microsecond)
				}
				conn.Leave(th)
				th.P.Sleep(down)
				if err := conn.Rejoin(th); err != nil {
					t.Error(err)
					return
				}
				req++
				if got := echoOnce(t, th, conn, sig, "back", req); got != "back" {
					t.Errorf("client %d echo after rejoin = %q", i, got)
				}
				conn.Leave(th)
			})
		}
		c.Env.RunUntil(25 * sim.Millisecond)
		return append([]ctrlplane.Event(nil), dir.Manager(0).Events...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no control-plane events logged")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	var joins, leaves int
	for _, e := range a {
		switch e.Kind {
		case "accept", "resume":
			joins++
		case "leave":
			leaves++
		}
	}
	if joins < 12 || leaves < 12 {
		t.Fatalf("log too quiet: %d joins, %d leaves (want >= 12 each)", joins, leaves)
	}
}
