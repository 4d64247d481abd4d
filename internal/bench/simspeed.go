package bench

import (
	"time"

	"scalerpc/internal/loadgen"
	"scalerpc/internal/sim"
)

func init() {
	register("simspeed", "DES kernel raw speed: wall-clock events/sec driving a full ScaleRPC cluster", runSimSpeed)
}

// macroRun is one execution of the macro scenario: what the kernel
// dispatched, and how long that took on the wall clock.
type macroRun struct {
	Events    uint64
	Callbacks uint64
	ProcWakes uint64
	RPCsDone  uint64
	VirtualNs int64
	WallNs    int64
}

// runSimSpeedMacroOnce executes the macro scenario — 256 open-loop Poisson
// clients offering 2 Mops/s to one ScaleRPC server, the ledger's
// echo_open_256 — once and measures it. TestSchedulerEquivalence drives it
// under both schedulers.
func runSimSpeedMacroOnce(opts Options) (macroRun, *loadgen.Report) {
	const clients = 256
	const clientHosts = 8
	const offered = 2_000_000.0

	c := opts.newCluster(1+clientHosts, 0)
	defer c.Close()
	connect, _ := startEcho("ScaleRPC", c.Hosts[0], nil)

	w := loadgen.Workload{
		Name:        "simspeed",
		OfferedRate: offered,
		Arrival:     loadgen.ArrivalPoisson,
		Warmup:      opts.Warmup,
		Duration:    opts.Duration,
		Seed:        opts.Seed,
		Handler:     1,
		Tenants:     []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32)}},
	}
	cl := make([]loadgen.Client, clients)
	for i := range cl {
		ch := c.Hosts[1+i%clientHosts]
		sig := sim.NewSignal(c.Env)
		cl[i] = loadgen.Client{Host: ch, Conn: connect(ch, sig), Sig: sig}
	}
	runner := loadgen.NewRunner(w, cl, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)

	start := time.Now()
	end := c.Env.RunUntil(runner.DrainDeadline() + 100*sim.Microsecond)
	wall := time.Since(start)

	rep := runner.Report()
	cb, pr := c.Env.FiredBreakdown()
	return macroRun{
		Events:    c.Env.Fired(),
		Callbacks: cb,
		ProcWakes: pr[0] + pr[1] + pr[2] + pr[3] + pr[4],
		RPCsDone:  rep.Completed,
		VirtualNs: int64(end),
		WallNs:    wall.Nanoseconds(),
	}, rep
}

// runSimSpeed reports the macro scenario's wall-clock dispatch rate. It is
// a reading, not a gate: before/after comparisons of simulator speed go
// through the ledger (benchmark/run.sh run | check), which pairs runs.
func runSimSpeed(opts Options) *Result {
	r := &Result{
		ID: "simspeed", Title: "Simulator raw speed: wall-clock events/sec (macro ScaleRPC cluster)",
		XLabel: "metric (index)", YLabel: "millions/sec",
	}
	m, rep := runSimSpeedMacroOnce(opts)
	perSec := float64(m.Events) / (float64(m.WallNs) / 1e9)
	r.AddPoint("macro-events-per-sec", 0, perSec/1e6)
	r.Notef("macro: 256 clients, %d events (%d callbacks, %d proc wakes) in %.1f ms wall = %.2f M events/s, %d RPCs, %.4fx real time",
		m.Events, m.Callbacks, m.ProcWakes, float64(m.WallNs)/1e6, perSec/1e6, m.RPCsDone, float64(m.VirtualNs)/float64(m.WallNs))
	if !rep.Pass {
		r.Note("warning: macro run failed its (trivial) completion check; events/sec may not reflect steady state")
	}
	return r
}
