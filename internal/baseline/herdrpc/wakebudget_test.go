package herdrpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
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

// emptySweep runs worker 0's pass over the zones of n connected, idle
// clients: its sweep, or — perProbe — the same probes each charged on its
// own. It reports the proc wakes and the CPU time the pass cost.
func emptySweep(t *testing.T, n int, perProbe bool) (wakes, workNs uint64) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	s := NewServer(c.Hosts[0], DefaultServerConfig())
	for i := 0; i < n; i++ {
		s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	}
	h, w := c.Hosts[0], s.Workers[0]
	h.Spawn("pass", func(th *host.Thread) {
		wakes, workNs = procWakes(c.Env), h.CPUWorkNs
		if perProbe {
			for b := 0; b < blocksPerClient; b++ {
				for z := w.Idx; z < n; z += workers {
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
	for _, n := range []int{40, 480} {
		wakes, work := emptySweep(t, n, false)
		probeWakes, probeWork := emptySweep(t, n, true)
		if wakes != 1 {
			t.Errorf("%d clients: empty sweep cost %d proc wakes, want 1", n, wakes)
		}
		if work != probeWork || work == 0 {
			t.Errorf("%d clients: empty sweep charged %d ns, the probes one by one %d ns", n, work, probeWork)
		}
		if want := uint64(n / workers * blocksPerClient); probeWakes != want {
			t.Errorf("%d clients: per-probe pass cost %d proc wakes, want one per probe (%d)", n, probeWakes, want)
		}
	}
}
