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

// TestResidentPagesTrackWrites: registered regions hold host memory only
// where a write reached. After a short ScaleRPC echo run and a SmallBank
// run on buildDeployment, no resident unit reads all zeros, each host
// holds less than one unit slab and one unit-table slab beyond its
// resident units and the unit tables they use, and the resident bytes are
// at most 55 % of the registered ones. Allocating a region's bytes at
// Register, or on a read, fails it.
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

// scalerpcEcho starts a ScaleRPC echo server on h, in groups of 40, and
// returns its connect function.
func scalerpcEcho(h *host.Host) func(*host.Host, *sim.Signal) rpccore.Conn {
	cfg := scalerpc.DefaultServerConfig()
	cfg.GroupSize = 40
	s := scalerpc.NewServer(h, cfg)
	s.Register(1, echo)
	s.Start()
	return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
}

func echo(t *host.Thread, _ uint16, req, out []byte) int {
	t.Work(400)
	return copy(out, req)
}

// echoRun drives 80 closed-loop echo clients, batch 4, for 1 ms against
// a ScaleRPC echo server on host 0, in two groups, and returns the
// cluster.
func echoRun(t *testing.T) *cluster.Cluster {
	c := cluster.New(cluster.Default(5))
	connect := scalerpcEcho(c.Hosts[0])
	const horizon = sim.Millisecond
	var answered int
	for i := 0; i < 80; i++ {
		h := c.Hosts[1+i%4]
		sig := sim.NewSignal(c.Env)
		conn := connect(h, sig)
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
	const slack = 256*256 + 256*128 // one unit slab and one unit-table slab
	var sum memory.Census
	for _, h := range c.Hosts {
		cs := h.Mem.Census()
		if extra := cs.Held - cs.Units - cs.Tables; extra < 0 || extra >= slack {
			t.Errorf("host %d holds %d bytes for %d in units and %d in unit tables, want less than %d bytes more",
				h.ID, cs.Held, cs.Units, cs.Tables, slack)
		}
		sum.Registered += cs.Registered
		sum.Units += cs.Units
		sum.Tables += cs.Tables
		sum.ZeroResident += cs.ZeroResident
		sum.Held += cs.Held
	}
	t.Logf("%d hosts: %.1f MB registered, %.1f MB resident in units (%.1f %%), %.2f MB of unit tables, %d resident bytes all zero, %.1f MB held",
		len(c.Hosts), float64(sum.Registered)/(1<<20), float64(sum.Units)/(1<<20),
		100*float64(sum.Units)/float64(sum.Registered), float64(sum.Tables)/(1<<20), sum.ZeroResident, float64(sum.Held)/(1<<20))
	if sum.ZeroResident != 0 {
		t.Errorf("%d resident bytes are in units that hold no written byte, want 0", sum.ZeroResident)
	}
	if sum.Units*100 > sum.Registered*55 {
		t.Errorf("%d resident bytes of %d registered, want at most 55 %%", sum.Units, sum.Registered)
	}
}
