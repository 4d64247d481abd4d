package shard

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// TestResidentPagesTrackWrites: registered regions hold host pages only
// where a write reached. After a short ScaleRPC echo run and a SmallBank
// run on buildDeployment, every resident page but a handful holds a
// written byte, each host holds less than one slab beyond its resident
// pages, and the resident bytes are at most 55 % of the registered ones.
// Allocating a region's pages at Register, or on a read, fails it.
func TestResidentPagesTrackWrites(t *testing.T) {
	t.Run("scalerpc-echo", func(t *testing.T) {
		c := echoRun(t)
		defer c.Close()
		checkResidency(t, c)
	})
	t.Run("shard-deployment", func(t *testing.T) {
		run := runSmallBank(t, false, sim.Millisecond)
		defer run.c.Close()
		checkResidency(t, run.c)
	})
}

// echoRun drives 80 closed-loop ScaleRPC echo clients in two groups, batch
// 4, for 1 ms.
func echoRun(t *testing.T) *cluster.Cluster {
	c := cluster.New(cluster.Default(5))
	cfg := scalerpc.DefaultServerConfig()
	cfg.GroupSize = 40
	s := scalerpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return copy(out, req)
	})
	s.Start()
	const horizon = sim.Millisecond
	var answered int
	for i := 0; i < 80; i++ {
		h := c.Hosts[1+i%4]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		h.Spawn("echo", func(th *host.Thread) {
			req := []byte("resident pages track writes")
			var id uint64
			for th.P.Now() < horizon {
				if conn.Outstanding() == 0 {
					for k := 0; k < 4 && conn.TrySend(th, 1, req, id+1); k++ {
						id++
					}
				}
				conn.Poll(th, func(rpccore.Response) { answered++ })
				th.WaitSignal(sig, 5*sim.Microsecond)
			}
		})
	}
	c.Env.RunUntil(horizon)
	if answered < 1000 {
		c.Close()
		t.Fatalf("only %d echoes answered", answered)
	}
	return c
}

// checkResidency sums every host's census and checks it.
func checkResidency(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	const page, slab = 4 << 10, 64 * 4 << 10
	var sum memory.Census
	for _, h := range c.Hosts {
		cs := h.Mem.Census()
		if slack := cs.Held - cs.Resident; slack < 0 || slack >= slab {
			t.Errorf("host %d holds %d page bytes for %d resident, want less than one %d-byte slab more", h.ID, cs.Held, cs.Resident, slab)
		}
		sum.Registered += cs.Registered
		sum.Resident += cs.Resident
		sum.ZeroResident += cs.ZeroResident
		sum.Held += cs.Held
	}
	t.Logf("%d hosts: %.1f MB registered, %.1f MB resident (%.1f %%), %d resident pages all zero, %.1f MB held",
		len(c.Hosts), float64(sum.Registered)/(1<<20), float64(sum.Resident)/(1<<20),
		100*float64(sum.Resident)/float64(sum.Registered), sum.ZeroResident/page, float64(sum.Held)/(1<<20))
	if sum.ZeroResident > sum.Resident/100 {
		t.Errorf("%d of %d resident pages hold no written byte, want at most 1 %%", sum.ZeroResident/page, sum.Resident/page)
	}
	if sum.Resident*100 > sum.Registered*55 {
		t.Errorf("%d resident bytes of %d registered, want at most 55 %%", sum.Resident, sum.Registered)
	}
}
