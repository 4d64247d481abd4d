package rpctest_test

import (
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
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
	join   func(t *host.Thread, sig *sim.Signal) (member, error)
	forget func(id uint16)
}

type managedTransport struct {
	name  string
	build func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer
}

func managedTransports() []managedTransport {
	return []managedTransport{
		{"scalerpc", func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer {
			cfg := scalerpc.DefaultServerConfig()
			cfg.Workers = 2
			cfg.GroupSize = 8
			cfg.TimeSlice = 50 * sim.Microsecond
			cfg.BlocksPerClient = 8
			s := scalerpc.NewServer(c.Hosts[0], cfg)
			reg(s)
			s.Start()
			s.BindControlPlane(dir.Manager(0))
			return managedServer{
				join: func(t *host.Thread, sig *sim.Signal) (member, error) {
					return s.Join(t, dir, sig, false)
				},
				forget: s.Forget,
			}
		}},
		{"rawwrite", func(c *cluster.Cluster, dir *ctrlplane.Directory, reg func(rpccore.Server)) managedServer {
			cfg := rawrpc.DefaultServerConfig()
			cfg.BlocksPerClient = 8
			s := rawrpc.NewServer(c.Hosts[0], cfg)
			reg(s)
			s.Start()
			s.BindControlPlane(dir.Manager(0))
			return managedServer{
				join: func(t *host.Thread, sig *sim.Signal) (member, error) {
					return s.Join(t, dir, sig)
				},
				forget: s.Forget,
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
