package scalerpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// TestWakeBudgetOneRequestOneWorker: a pool write wakes only the worker
// whose stripe it lands in. An idle ten-worker server with a client in
// every stripe takes one request; against the same run without it, the
// request adds sweeps only to its zone's owner, which serves it — the other
// nine sweep exactly as often as they would have (every one of them swept
// once more when each pool write woke all ten).
func TestWakeBudgetOneRequestOneWorker(t *testing.T) {
	const (
		clients = 20
		target  = 13
		settle  = 300 * sim.Microsecond // every client has had its round trip
		window  = 10 * sim.Microsecond  // the request lands, is served, answered
	)
	type outcome struct {
		zone          int
		sweeps, serve [10]uint64
		answered      bool
	}
	run := func(send bool) outcome {
		c := cluster.New(cluster.Default(2))
		defer c.Close()
		cfg := DefaultServerConfig()
		cfg.GroupSize = clients // one group: no rotation in the window
		cfg.MaxClients = 64
		cfg.BlocksPerClient = 4
		s := NewServer(c.Hosts[0], cfg)
		s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
			t.Work(100)
			return copy(out, req)
		})
		s.Start()
		var o outcome
		for i := 0; i < clients; i++ {
			i, sig := i, sim.NewSignal(c.Env)
			conn := s.Connect(c.Hosts[1], sig)
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				call := func(reqID uint64) bool {
					if !conn.TrySend(th, 1, []byte("ping"), reqID) {
						t.Errorf("client %d: send %d refused", i, reqID)
						return false
					}
					for answered := false; !answered; {
						conn.Poll(th, func(rpccore.Response) { answered = true })
						if !answered && sig.WaitTimeout(th.P, settle) {
							return false
						}
					}
					return true
				}
				call(1)
				if send && i == target {
					th.P.Sleep(settle - th.P.Now())
					o.zone = conn.processZone()
					o.answered = call(2)
				}
			})
		}
		c.Env.RunUntil(settle)
		var before [10]uint64
		for i, w := range s.workers {
			before[i], o.serve[i] = w.Sweeps, w.Served
		}
		c.Env.RunUntil(settle + window)
		for i, w := range s.workers {
			o.sweeps[i], o.serve[i] = w.Sweeps-before[i], w.Served-o.serve[i]
		}
		if s.Stats.Switches != 0 {
			// A context switch would broadcast to every worker.
			t.Fatalf("%d switches on a one-group server", s.Stats.Switches)
		}
		return o
	}
	quiet, one := run(false), run(true)
	if !one.answered {
		t.Fatal("the request was not answered inside the window")
	}
	owner := one.zone % len(one.sweeps)
	var swept, extra uint64
	for i := range one.sweeps {
		swept += one.sweeps[i]
		extra += one.sweeps[i] - quiet.sweeps[i]
		if i == owner {
			if one.serve[i] != 1 {
				t.Errorf("zone %d's owner, worker %d, served %d requests, want 1", one.zone, i, one.serve[i])
			}
			continue
		}
		if one.sweeps[i] != quiet.sweeps[i] || one.serve[i] != 0 {
			t.Errorf("worker %d (not the owner of zone %d) swept %d times and served %d; %d sweeps without the request",
				i, one.zone, one.sweeps[i], one.serve[i], quiet.sweeps[i])
		}
	}
	if extra != 1 {
		t.Errorf("one request added %d sweeps, want 1", extra)
	}
	t.Logf("zone %d, owner %d: %d sweeps in the window, %d more than without the request", one.zone, owner, swept, extra)
}
