package rawrpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// procWakes is the number of process resumes env has dispatched.
func procWakes(env *sim.Env) uint64 {
	_, byTag := env.FiredBreakdown()
	var n uint64
	for _, v := range byTag {
		n += v
	}
	return n
}

// emptySweep runs one pass over the zones of n connected, idle clients on
// a one-worker server: the worker's sweep, or — perProbe — the same probes
// each charged on its own. It reports the proc wakes and the CPU time the
// pass cost.
func emptySweep(t *testing.T, n int, perProbe bool) (wakes, workNs uint64) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = n
	s := NewServer(c.Hosts[0], cfg)
	for i := 0; i < n; i++ {
		s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	}
	h, w := c.Hosts[0], s.Workers[0]
	h.Spawn("pass", func(th *host.Thread) {
		wakes, workNs = procWakes(c.Env), h.CPUWorkNs
		if perProbe {
			for b := 0; b < cfg.BlocksPerClient; b++ {
				for z := 0; z < n; z++ {
					s.Req.Sweep(th, &w.Req, z, b)
				}
			}
		} else if s.sweep(th, w) != 0 {
			t.Error("an empty sweep served a request")
		}
		wakes, workNs = procWakes(c.Env)-wakes, h.CPUWorkNs-workNs
	})
	c.Env.RunUntil(sim.Millisecond)
	return wakes, workNs
}

// TestWakeBudgetEmptySweep: an empty sweep settles its probes in one core
// charge — one proc wake whatever the number of zones × blocks — and
// charges exactly the CPU time the probes charged one by one.
func TestWakeBudgetEmptySweep(t *testing.T) {
	for _, n := range []int{4, 64} {
		wakes, work := emptySweep(t, n, false)
		probeWakes, probeWork := emptySweep(t, n, true)
		if wakes != 1 {
			t.Errorf("%d clients: empty sweep cost %d proc wakes, want 1", n, wakes)
		}
		if work != probeWork || work == 0 {
			t.Errorf("%d clients: empty sweep charged %d ns, the probes one by one %d ns", n, work, probeWork)
		}
		if want := uint64(n * DefaultServerConfig().BlocksPerClient); probeWakes != want {
			t.Errorf("%d clients: per-probe pass cost %d proc wakes, want one per probe (%d)", n, probeWakes, want)
		}
	}
}

// TestWakeBudgetClient: a send pays its staging write with the doorbell in
// one wake, and a poll that delivers a full window of responses leaves its
// charge to the caller's park (at most one wake).
func TestWakeBudgetClient(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 4
	s := NewServer(c.Hosts[0], cfg)
	s.Register(1, func(_ *host.Thread, _ uint16, req, out []byte) int { return copy(out, req) })
	conn := s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	got := 0
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		// The server starts after the sends, so the wakes counted across a
		// send are the client's own.
		for i := 0; i < conn.SlotCount(); i++ {
			before := procWakes(c.Env)
			if !conn.TrySend(th, 1, []byte("wake-budget"), uint64(i)) {
				t.Error("TrySend failed on a free slot")
				return
			}
			if wakes := procWakes(c.Env) - before; wakes != 1 {
				t.Errorf("send %d cost %d proc wakes, want 1", i, wakes)
			}
		}
		s.Start()
		th.P.Sleep(200 * sim.Microsecond) // every response lands
		before := procWakes(c.Env)
		got = conn.Poll(th, func(rpccore.Response) {})
		if wakes := procWakes(c.Env) - before; wakes > 1 {
			t.Errorf("a full-window poll cost %d proc wakes, want ≤ 1", wakes)
		}
	})
	c.Env.RunUntil(sim.Millisecond)
	if got != cfg.BlocksPerClient {
		t.Fatalf("poll delivered %d responses, want a full window of %d", got, cfg.BlocksPerClient)
	}
}
