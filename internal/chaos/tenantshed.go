// The tenant-shed chaos variant: drop-class faults run against a server
// whose scheduler is under a tenant authority while the online SLO
// controller sheds bulk load mid-run. The four reliability invariants
// must hold exactly as in the plain matrix — admission shedding, weight
// shrinking and class demotion may slow tenants down, but they must never
// lose, duplicate or corrupt acknowledged work.
package chaos

import (
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/tenant"
)

// A tenant-shed run measures tenantClients latency-tenant clients with
// tenantCalls calls each. tenantBulk is the steadily loaded bulk
// population; tenantChurn is the additional bulk fodder the churn process
// connects and disconnects throughout the run, whose reconnects are what
// level-3 shedding refuses. The hard stop is the echo harnesses' budget.
const (
	tenantClients = 4
	tenantCalls   = 150
	tenantBulk    = 8
	tenantChurn   = 6
)

// TenantOutcome is the run's artifact: the standard invariant Result plus
// the controller's deterministic action log and shed counters. Same seed
// ⇒ byte-identical JSON.
type TenantOutcome struct {
	Result *Result `json:"result"`
	// Actions is the controller's ladder log; a run that never trips has
	// an empty log (the test asserts the tight SLO does trip).
	Actions []tenant.Action `json:"actions"`
	// ShedRejects counts churn reconnects refused while the controller
	// held the bulk tenant at level 3; QuotaRejects counts refusals by
	// the tenant's own connection quota at lower levels.
	ShedRejects  uint64 `json:"shed_rejects"`
	QuotaRejects uint64 `json:"quota_rejects"`
	FinalLevel   int    `json:"final_level"`
	Windows      uint64 `json:"windows"`
	Violations   uint64 `json:"slo_violations"`
}

// latRecorder aggregates the measured tenant's telemetry for the
// controller's sampling window.
type latRecorder struct {
	hist      *stats.Histogram
	offered   uint64
	completed uint64
}

// RunTenant executes one seeded tenant-shed schedule.
func RunTenant(seed uint64) (*TenantOutcome, error) {
	scen, err := GenScenario(ClassDrop, seed)
	if err != nil {
		return nil, err
	}
	r := newRun(3, seed, budget)
	defer r.c.Close()
	c := r.c
	p := c.InstallFaults(scen)
	rel := rpccore.SharedRel(c.Telemetry)

	m := tenant.NewManager(c.Telemetry.Scope("qos"))
	latID := m.Register(tenant.Spec{Name: "lat",
		Quota: tenant.Quota{MaxConns: tenantClients + 2, Weight: 4, Class: tenant.ClassLatency}})
	bulkID := m.Register(tenant.Spec{Name: "bulk",
		Quota: tenant.Quota{MaxConns: tenantBulk + tenantChurn + 2, Weight: 1, Class: tenant.ClassBulk}})

	ex := execs{}
	s := r.echoServer(ex, func(s *scalerpc.Server) { s.SetTenantAuthority(m) })
	opts := callOpts(ClassDrop)

	// The steadily loaded bulk population: fire-and-forget echo traffic
	// for the whole run, the noisy neighbor the controller squeezes.
	for i := range tenantBulk {
		ch := c.Hosts[1+i%2]
		sig := sim.NewSignal(c.Env)
		bc := s.ConnectTenant(ch, sig, bulkID, false)
		if bc == nil {
			return nil, fmt.Errorf("chaos: bulk client %d refused at setup", i)
		}
		caller := rpccore.NewCaller(bc, opts, rel)
		ch.Spawn("tenant-bulk", func(th *host.Thread) {
			payload := make([]byte, payloadLen)
			for seq := 0; th.P.Now() < r.hardStop; seq++ {
				fillPayload(payload, token(1000+i, seq))
				if !caller.TrySend(th, 1, payload, uint64(seq)) {
					caller.Poll(th, func(rpccore.Response) {})
					th.WaitSignal(sig, 20*sim.Microsecond)
					continue
				}
				resolved := false
				for !resolved && th.P.Now() < r.hardStop {
					caller.Poll(th, func(resp rpccore.Response) {
						if resp.ReqID == uint64(seq) {
							resolved = true
						}
					})
					if !resolved {
						th.WaitSignal(sig, 20*sim.Microsecond)
					}
				}
			}
		})
	}

	// The measured latency tenant's windowed telemetry and the controller
	// protecting it. The SLO is deliberately tight for a run under
	// injected loss — retry spikes blow through it, so the ladder must
	// move (and recover in quiet stretches).
	rec := &latRecorder{hist: stats.NewHistogram()}
	slo := loadgen.SLO{Targets: []loadgen.SLOTarget{{Q: 0.99, LimitUs: 30}}, MinCompletion: 0.5}
	ctlCfg := tenant.ControllerConfig{
		Interval:     100 * sim.Microsecond,
		TripWindows:  1,
		ClearWindows: 4,
		MinSamples:   4,
	}
	ctl := m.NewController(latID, slo, func() (*stats.Histogram, uint64, uint64) {
		return rec.hist, rec.offered, rec.completed
	}, ctlCfg)
	ctl.Start(c.Env)

	// The churn fodder: a seeded process connects and disconnects bulk
	// identities all run long; while the controller holds level 3 these
	// reconnects are refused at admission (ShedRejects — refusals below
	// level 3 are plain quota rejects and counted separately).
	out := &TenantOutcome{}
	{
		sig := sim.NewSignal(c.Env)
		ids := make([]uint16, 0, tenantChurn)
		for i := range tenantChurn {
			if bc := s.ConnectTenant(c.Hosts[1+i%2], sig, bulkID, false); bc != nil {
				ids = append(ids, bc.ID())
			}
		}
		rng := stats.NewRNG(seed ^ salts[ClassChurn] ^ 0x7e7e7e7e)
		c.Env.Spawn("tenant-churn", func(pr *sim.Proc) {
			for k := 0; pr.Now() < r.hardStop; k++ {
				if len(ids) > 0 && rng.Float64() < 0.6 {
					j := rng.Intn(len(ids))
					s.Disconnect(ids[j])
					ids = append(ids[:j], ids[j+1:]...)
				} else {
					if bc := s.ConnectTenant(c.Hosts[1+k%2], sig, bulkID, false); bc != nil {
						ids = append(ids, bc.ID())
					} else if ctl.Level() >= 3 {
						out.ShedRejects++
					} else {
						out.QuotaRejects++
					}
				}
				pr.Sleep(sim.Duration(80+rng.Intn(80)) * sim.Microsecond)
			}
		})
	}

	runs := make([]*clientRun, tenantClients)
	for i := range runs {
		cr := &clientRun{}
		runs[i] = cr
		ch := c.Hosts[1+i%2]
		sig := sim.NewSignal(c.Env)
		lc := s.ConnectTenant(ch, sig, latID, false)
		if lc == nil {
			return nil, fmt.Errorf("chaos: latency client %d refused at setup", i)
		}
		caller := rpccore.NewCaller(lc, opts, rel)
		ch.Spawn("tenant-lat", func(th *host.Thread) {
			driveClient(th, caller, sig, i, tenantCalls, 0, r.hardStop, cr, rec)
		})
	}
	r.drive(100*sim.Microsecond, 0, func() bool { return allDone(runs) })
	ctl.Stop()
	r.settle()

	out.Result = assemble(r, Config{Class: ClassDrop, Seed: seed, Transport: "ScaleRPC"},
		tenantClients, tenantCalls, scen, p, rel, runs, ex)
	out.Actions = ctl.Actions
	out.FinalLevel = ctl.Level()
	out.Windows = ctl.Windows
	out.Violations = ctl.Violations
	return out, nil
}
