// The multi-tenant QoS experiments: a 64-tenant mix (1 latency-sensitive,
// 63 adversarial bulk) run through four arms — unmanaged, caps-only,
// quota (caps + reserved-zone placement) and fully managed (quota + the
// online SLO controller) — plus the tenant-shed chaos matrix as a
// registered experiment.
package bench

import (
	"fmt"

	"scalerpc/internal/chaos"
	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/tenant"
)

func init() {
	register("tenantmix", "Multi-tenant QoS: 64 tenants, unmanaged vs caps vs quota vs managed (SLO controller)", runTenantMix)
	register("tenantfaults", "Tenant-shed chaos matrix: invariants hold while the controller sheds mid-run", runTenantFaults)
}

// tenantMixTenants is the tenant population: tenant 0 is the
// latency-sensitive tenant, the rest are adversarial bulk.
const tenantMixTenants = 64

// tenantMixArm is one arm's artifact row.
type tenantMixArm struct {
	Arm        string  `json:"arm"`
	LatP99Us   float64 `json:"lat_p99_us"`
	LatSLOPass bool    `json:"lat_slo_pass"`
	BulkMops   float64 `json:"bulk_mops"`
	// Churn counters: dials admitted, refused by per-tenant quota, and
	// refused because the controller held the bulk class at shed level.
	ChurnAdmitted uint64 `json:"churn_admitted"`
	QuotaRejects  uint64 `json:"quota_rejects"`
	ShedRejects   uint64 `json:"shed_rejects"`
	// Controller outcome (managed arm only).
	Actions    []tenant.Action `json:"actions,omitempty"`
	FinalLevel int             `json:"final_level"`
	Windows    uint64          `json:"windows"`
	Violations uint64          `json:"slo_violation_windows"`

	Rel      rpccore.RelStats  `json:"rel"`
	Injected faults.PlaneStats `json:"injected"`
	Report   interface{}       `json:"report"`
}

// tenantMixWorkload builds the 64-tenant open-loop mix: one small-message
// latency tenant holding 6% of the offered rate under a p99 ≤ 50 µs SLO,
// and 63 bulk tenants splitting the rest with 512-byte requests.
func tenantMixWorkload(opts Options) loadgen.Workload {
	tenants := make([]loadgen.TenantSpec, tenantMixTenants)
	tenants[0] = loadgen.TenantSpec{
		Name: "lat", Share: 0.06, Size: loadgen.FixedSize(32), SLO: loadgen.P99(50),
	}
	for i := 1; i < tenantMixTenants; i++ {
		tenants[i] = loadgen.TenantSpec{
			Name: fmt.Sprintf("b%02d", i), Share: 0.94 / float64(tenantMixTenants-1),
			Size: loadgen.FixedSize(512),
		}
	}
	return loadgen.Workload{
		Name:        "tenantmix",
		OfferedRate: 1_500_000,
		Arrival:     loadgen.ArrivalPoisson,
		Tenants:     tenants,
		Warmup:      opts.Warmup,
		Duration:    opts.Duration,
		Seed:        opts.Seed,
		// Per-call deadlines so injected drops are recovered by resend
		// instead of stranding a client slot past the drain.
		Call: rpccore.CallOpts{
			Timeout:       2400 * sim.Microsecond,
			RetryInterval: 600 * sim.Microsecond,
			MaxRetries:    3,
		},
	}
}

// runTenantMixArm executes one arm of the comparison. All arms see
// the same workload, fault schedule and seeded churn; they differ only in
// what stands between a dial and a group slot:
//
//   - "unmanaged": no authority — every dial lands a rotating-group slot.
//   - "caps": the tenant authority enforces connection quotas, weights and
//     class-pure grouping, but the latency tenant dials unpinned — no zone
//     reservation, no controller.
//   - "quota": caps plus the latency tenant's reserved-zone quota — its
//     clients are pinned outside the rotation; still no controller.
//   - "managed": quota plus the online SLO controller sampling the
//     latency tenant's sliding windows.
func runTenantMixArm(arm string, opts Options) tenantMixArm {
	out := tenantMixArm{Arm: arm}
	managed := arm != "unmanaged"
	controlled := arm == "managed"
	pinLat := arm == "quota" || arm == "managed"

	o := opts
	if o.Faults == nil {
		// A light injected-loss floor (recovered by RC retransmission at a
		// realistic RTO) so the arms are compared under fire, not in a
		// vacuum.
		sc := faults.DropAll("tenantmix-drop", 0.002)
		sc.NIC.RetransmitTimeoutNs = 800_000
		o.Faults = sc
	}

	ccfg := cluster.Default(1 + 4)
	ccfg.Seed = o.Seed
	c := cluster.New(ccfg)
	defer c.Close()
	plane := o.instrument(c)

	w := tenantMixWorkload(o)
	w.Handler = 1

	cfg := scalerpc.DefaultServerConfig()
	cfg.MaxClients = 256
	cfg.ReservedZones = 4
	s := scalerpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)

	// The managed arms put a tenant authority between dials and zones:
	// the latency tenant gets a declared weight, latency class and two
	// reserved-zone slots; every bulk tenant gets a 3-connection quota
	// (its two load clients plus one spare the churn process fights for).
	var m *tenant.Manager
	ids := make([]uint16, tenantMixTenants)
	if managed {
		m = tenant.NewManager(c.Telemetry.Scope("qos"))
		ids[0] = m.Register(tenant.Spec{Name: "lat", Quota: tenant.Quota{
			MaxConns: 4, ReservedZones: 2, Weight: 8, Class: tenant.ClassLatency}})
		for i := 1; i < tenantMixTenants; i++ {
			ids[i] = m.Register(tenant.Spec{Name: fmt.Sprintf("b%02d", i), Quota: tenant.Quota{
				MaxConns: 3, Weight: 1, Class: tenant.ClassBulk}})
		}
		s.SetTenantAuthority(m)
	}
	s.Start()

	clients := make([]loadgen.Client, 2*tenantMixTenants)
	for i := range clients {
		tn := i / 2
		ch := c.Hosts[1+i%4]
		sig := sim.NewSignal(c.Env)
		var conn rpccore.Conn
		if managed {
			cc := s.ConnectTenant(ch, sig, ids[tn], tn == 0 && pinLat)
			if cc == nil {
				panic(fmt.Sprintf("tenantmix: client %d (tenant %d) refused at setup", i, tn))
			}
			conn = cc
		} else {
			conn = s.Connect(ch, sig)
		}
		clients[i] = loadgen.Client{Host: ch, Conn: conn, Sig: sig, Tenant: tn}
	}
	runner := loadgen.NewRunner(w, clients, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)

	// The online controller (managed arm only) samples the latency
	// tenant's live telemetry each window; the windowed completion floor
	// is relaxed to 50% because in-flight requests straddle the short
	// windows, while the *report* keeps the strict cumulative SLO.
	var ctl *tenant.Controller
	if controlled {
		slo := loadgen.SLO{Targets: []loadgen.SLOTarget{{Q: 0.99, LimitUs: 50}}, MinCompletion: 0.5}
		ctl = m.NewController(ids[0], slo, func() (*stats.Histogram, uint64, uint64) {
			h, off, comp, _ := runner.TenantSample("lat")
			return h, off, comp
		}, tenant.ControllerConfig{
			// The latency tenant offers ~90k req/s, so a 250 µs window
			// holds ~22 samples — comfortably past MinSamples, so every
			// window is actually evaluated rather than skipped as thin.
			Interval:     250 * sim.Microsecond,
			TripWindows:  2,
			ClearWindows: 5,
			MinSamples:   8,
			WeightFactor: 0.25,
		})
		ctl.Start(c.Env)
	}

	// The seeded churn/dial-spam process, identical across arms: it keeps
	// dialing bulk identities and dropping held ones. Unmanaged, every
	// dial lands in the rotation; managed, the spare-slot quota (and the
	// controller's shed level) refuses the excess at admission.
	stop := runner.DrainDeadline()
	{
		const churnCap = 24
		rng := stats.NewRNG(o.Seed ^ 0xc0ffee5eed)
		sig := sim.NewSignal(c.Env)
		var held []uint16
		c.Env.Spawn("tenantmix-churn", func(pr *sim.Proc) {
			for k := 0; pr.Now() < stop; k++ {
				if len(held) > 0 && (len(held) >= churnCap || rng.Float64() < 0.5) {
					j := rng.Intn(len(held))
					s.Disconnect(held[j])
					held = append(held[:j], held[j+1:]...)
				} else {
					ch := c.Hosts[1+k%4]
					var cc *scalerpc.Conn
					if managed {
						// Concentrate the spam on 8 bulk tenants so their
						// one-spare-slot quotas genuinely refuse dials once
						// the spares are held.
						cc = s.ConnectTenant(ch, sig, ids[1+k%8], false)
					} else {
						cc = s.Connect(ch, sig)
					}
					switch {
					case cc != nil:
						held = append(held, cc.ID())
						out.ChurnAdmitted++
					case ctl != nil && ctl.Level() >= 3:
						out.ShedRejects++
					default:
						out.QuotaRejects++
					}
				}
				pr.Sleep(sim.Duration(40+rng.Intn(60)) * sim.Microsecond)
			}
		})
	}

	c.Env.RunUntil(runner.DrainDeadline() + 100*sim.Microsecond)
	if ctl != nil {
		ctl.Stop()
		out.Actions = ctl.Actions
		out.FinalLevel = ctl.Level()
		out.Windows = ctl.Windows
		out.Violations = ctl.Violations
	}
	out.Rel = *rpccore.SharedRel(c.Telemetry)
	if plane != nil {
		out.Injected = plane.Stats
	}

	rep := runner.Report()
	out.LatP99Us = rep.Tenants[0].P99Us
	out.LatSLOPass = rep.Tenants[0].SLOPass
	for _, t := range rep.Tenants[1:] {
		out.BulkMops += t.AchievedMops
	}
	out.Report = rep
	return out
}

// runTenantMix executes the three-arm comparison and emits the headline
// artifact BENCH_tenantmix.json.
func runTenantMix(opts Options) *Result {
	r := &Result{
		ID: "tenantmix", Title: "64 tenants (1 latency-sensitive + 63 bulk) under churn and loss: unmanaged vs caps vs quota vs managed",
		XLabel: "arm (0=unmanaged 1=caps 2=quota 3=managed)", YLabel: "lat-tenant p99 (us)",
	}
	arms := []string{"unmanaged", "caps", "quota", "managed"}
	outs := make([]tenantMixArm, 0, len(arms))
	tbl := Table{
		Title:  "per-arm outcomes (lat tenant SLO: p99 <= 50us)",
		Header: []string{"arm", "lat_p99us", "slo", "bulk_mops", "churn_adm", "quota_rej", "shed_rej", "ladder", "final_lvl"},
	}
	for i, arm := range arms {
		out := runTenantMixArm(arm, opts)
		outs = append(outs, out)
		pass := 0.0
		if out.LatSLOPass {
			pass = 1.0
		}
		r.AddPoint("lat-p99us", float64(i), out.LatP99Us)
		r.AddPoint("lat-slo-pass", float64(i), pass)
		r.AddPoint("bulk-mops", float64(i), out.BulkMops)
		tbl.Rows = append(tbl.Rows, []string{
			arm, fmt.Sprintf("%.1f", out.LatP99Us), fmt.Sprintf("%v", out.LatSLOPass),
			fmt.Sprintf("%.2f", out.BulkMops), fmt.Sprintf("%d", out.ChurnAdmitted),
			fmt.Sprintf("%d", out.QuotaRejects), fmt.Sprintf("%d", out.ShedRejects),
			fmt.Sprintf("%d", len(out.Actions)), fmt.Sprintf("%d", out.FinalLevel),
		})
		r.Notef("%s: lat p99 %.1fus (SLO pass=%v), bulk %.2f Mops/s, churn admitted=%d quota_rej=%d shed_rej=%d",
			arm, out.LatP99Us, out.LatSLOPass, out.BulkMops,
			out.ChurnAdmitted, out.QuotaRejects, out.ShedRejects)
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_tenantmix.json", marshalArtifact(outs))
	r.Note("unmanaged, the latency tenant's clients share the rotating groups with 63 bulk tenants and every spam dial lands a group slot, so its p99 rides the full slice cycle; the caps arm adds connection quotas, weights and class-pure grouping but no placement — the tail still waits out the rotation; only the managed arm, which honors the tenant's reserved-zone quota and arms the online SLO controller, holds the p99 under the 50us objective")
	return r
}

// tenantFaultSeeds mirrors the tenant-shed test matrix, extended for the
// full run; each row is replayable as chaos.RunTenant(seed).
var tenantFaultSeeds = []uint64{1, 2, 3, 5, 7, 8}

// runTenantFaults executes the tenant-shed chaos matrix: drop-class faults
// with the controller shedding mid-run, asserting the four reliability
// invariants hold and reporting the ladder activity per seed.
func runTenantFaults(opts Options) *Result {
	r := &Result{
		ID: "tenantfaults", Title: "Tenant-shed chaos: invariants under drop faults while the SLO controller sheds",
		XLabel: "seed", YLabel: "violations (must be 0)",
	}
	seeds := tenantFaultSeeds
	if opts.Quick {
		seeds = seeds[:2]
	}
	var outs []*chaos.TenantOutcome
	var violations int
	var moves, sheds, quotaRejs uint64
	tbl := Table{
		Title:  "per-seed verdicts and controller activity",
		Header: []string{"seed", "acked", "retries", "dedup", "windows", "slo_viol", "ladder", "final_lvl", "shed_rej", "quota_rej", "violations"},
	}
	for _, seed := range seeds {
		out, err := chaos.RunTenant(seed)
		if err != nil { // the fixed config is always valid
			panic(err)
		}
		outs = append(outs, out)
		violations += len(out.Result.Violations)
		moves += uint64(len(out.Actions))
		sheds += out.ShedRejects
		quotaRejs += out.QuotaRejects
		r.AddPoint("violations", float64(seed), float64(len(out.Result.Violations)))
		r.AddPoint("ladder-moves", float64(seed), float64(len(out.Actions)))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", seed), fmt.Sprintf("%d", out.Result.Acked),
			fmt.Sprintf("%d", out.Result.Retries), fmt.Sprintf("%d", out.Result.DedupHits),
			fmt.Sprintf("%d", out.Windows), fmt.Sprintf("%d", out.Violations),
			fmt.Sprintf("%d", len(out.Actions)), fmt.Sprintf("%d", out.FinalLevel),
			fmt.Sprintf("%d", out.ShedRejects), fmt.Sprintf("%d", out.QuotaRejects),
			fmt.Sprintf("%d", len(out.Result.Violations)),
		})
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_tenantfaults.json", marshalArtifact(outs))
	r.Notef("%d seeded runs, %d invariant violations; the controller moved the ladder %d times, refused %d dials at shed level and %d on plain quota",
		len(outs), violations, moves, sheds, quotaRejs)
	r.Note("admission shedding, weight shrinking and class demotion may slow bulk tenants down, but acknowledged work is never lost, duplicated or corrupted — the same four invariants as the plain chaos matrix")
	return r
}
