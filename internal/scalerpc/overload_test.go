package scalerpc

import (
	"testing"

	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/sim"
)

// TestRegroupUnderOpenLoopOverload drives a dynamic-scheduler server with a
// sustained open-loop load well above its capacity — the regime where the
// priority regroup runs every cycle and a buggy scheduler would either let
// group sizes drift outside the lazy [G/2, 3G/2] bounds or starve the
// low-priority tenant entirely.
func TestRegroupUnderOpenLoopOverload(t *testing.T) {
	c, s := buildServer(4, func(cfg *ServerConfig) {
		cfg.Dynamic = true
	})
	defer c.Close()
	s.Register(2, func(th *host.Thread, clientID uint16, req []byte, out []byte) int {
		th.Work(2000) // 2µs of service: 4 workers cap capacity well below the offered load
		return copy(out, req[:16])
	})

	const nClients = 24
	clients := make([]loadgen.Client, nClients)
	for i := range clients {
		h := c.Hosts[1+i%3]
		sig := sim.NewSignal(c.Env)
		clients[i] = loadgen.Client{
			Host:   h,
			Conn:   s.Connect(h, sig),
			Sig:    sig,
			Tenant: i % 2, // even clients bulk, odd clients light
		}
	}

	w := loadgen.Workload{
		Name:        "overload",
		OfferedRate: 4_000_000, // ≫ capacity at 2µs/request
		Arrival:     loadgen.ArrivalPoisson,
		Tenants: []loadgen.TenantSpec{
			{Name: "bulk", Share: 0.9, Size: loadgen.FixedSize(512)},
			{Name: "light", Share: 0.1, Size: loadgen.FixedSize(32)},
		},
		Handler:  2,
		Warmup:   200 * sim.Microsecond,
		Duration: 3 * sim.Millisecond,
		Drain:    300 * sim.Microsecond,
		Seed:     11,
	}
	r := loadgen.NewRunner(w, clients, c.Telemetry.UniqueScope("loadgen"))
	r.Start(c.Env)
	c.Env.RunUntil(r.DrainDeadline() + 100*sim.Microsecond)
	rep := r.Report()

	// The run must actually have been overloaded: the server fell behind
	// the arrival process and clients accumulated backlog.
	if rep.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if rep.Completed >= rep.Offered {
		t.Fatalf("not overloaded: completed %d of %d offered", rep.Completed, rep.Offered)
	}
	var peak uint64
	for _, tr := range rep.Tenants {
		if tr.BacklogPeak > peak {
			peak = tr.BacklogPeak
		}
	}
	if peak < uint64(nClients) {
		t.Fatalf("backlog peak %d, want sustained queueing", peak)
	}

	// Priority regroups ran and the lazy size bounds held: every group in
	// [G/2, 3G/2], except that the trailing group may be a runt when the
	// population is not a multiple of G.
	if s.Stats.Regroups == 0 {
		t.Fatal("dynamic scheduler never regrouped under sustained load")
	}
	g := s.Cfg.GroupSize
	sizes := s.groupSizes()
	total := 0
	for i, n := range sizes {
		total += n
		if n > g*3/2 {
			t.Fatalf("group %d size %d above 3G/2=%d (groups %v)", i, n, g*3/2, sizes)
		}
		if n < g/2 && i != len(sizes)-1 {
			t.Fatalf("group %d size %d below G/2=%d (groups %v)", i, n, g/2, sizes)
		}
	}
	if total != nClients {
		t.Fatalf("groups hold %d clients, want %d (groups %v)", total, nClients, sizes)
	}

	// No starvation: the low-share tenant still completes a meaningful
	// fraction of its offered load — the priority scheduler reorders
	// groups, it does not stop scheduling anyone.
	for _, tr := range rep.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s starved: 0 of %d offered completed", tr.Name, tr.Offered)
		}
	}
	light := rep.Tenants[1]
	if frac := float64(light.Completed) / float64(light.Offered); frac < 0.05 {
		t.Fatalf("light tenant completed only %.1f%% of its load", frac*100)
	}
}
