// Gray-failure chaos: seeded asymmetric-fault schedules against a ScaleRPC
// server whose clients are admitted through the control plane, with the
// adaptive phi-accrual detector (or the fixed-TTL lease baseline) deciding
// liveness. On top of the four reliability invariants of the plain matrix,
// a gray run must hold two more:
//
//  5. No eviction of a healthy node: the detector may suspect, probe and
//     demote the gray node, but only a genuinely unreachable peer may be
//     evicted — and victim hosts (never touched by the schedule) must not
//     be evicted under any schedule. The one-way partition class exempts
//     the gray node itself: total inbound silence is indistinguishable
//     from death, and evicting it is the *correct* call.
//  6. Bounded disruption: the gray node's sickness must not leak into the
//     victim population — every victim drains its full call budget with at
//     least 90% of calls acknowledged.
//
// The fixed-TTL baseline is expected to violate invariant 5 on the
// straggler, degraded-link and keepalive-loss schedules (that misfire is
// the point of the comparison); the tests assert the adaptive detector
// holds all six where the baseline demonstrably evicts.
package chaos

import (
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// GrayClass selects a gray-failure schedule family. Every class afflicts
// host 1 (the "gray" client host) and leaves the victim hosts untouched.
type GrayClass string

const (
	// GrayStraggler slows the gray host: CPU scaled down, every wire
	// message gains fixed delay plus heavy jitter. Nothing is lost — the
	// node is just late, which is exactly what widens keepalive
	// inter-arrival gaps past a fixed TTL.
	GrayStraggler GrayClass = "straggler"
	// GrayOneWay silences the gray→server direction completely while the
	// reverse flows: the asymmetric partition where the server must
	// eventually evict (and quarantine) a node that still hears it.
	GrayOneWay GrayClass = "oneway"
	// GrayDegraded keeps the gray↔server links alive but sick in both
	// directions: delay, jitter, and serialization stretched below nominal
	// rate. Everything arrives, just late and irregular.
	GrayDegraded GrayClass = "degraded"
	// GrayKALoss drops only keepalive-class frames gray→server; data flows
	// untouched. The lease protocol starves while the service is perfect —
	// the purest fixed-TTL false-eviction trap.
	GrayKALoss GrayClass = "kaloss"
)

// GrayClasses lists the schedule families in matrix order.
func GrayClasses() []GrayClass {
	return []GrayClass{GrayStraggler, GrayOneWay, GrayDegraded, GrayKALoss}
}

// Per-class schedule salts (same trick as the plain matrix: independent
// streams per class even at equal seeds). A class missing from the table
// is rejected.
var graySalts = map[GrayClass]uint64{
	GrayStraggler: 0xd1b54a32d192ed03,
	GrayOneWay:    0x8cb92ba72f3d8dd7,
	GrayDegraded:  0xaef17502108ef2d9,
	GrayKALoss:    0x9e6c63d0876a9a47,
}

// GraySeeds is the gray-matrix seed set that TestGrayMatrix and
// scalebench grayfail both run, kept literal for exact replay.
var GraySeeds = []uint64{1, 2, 3, 5, 8}

// grayHost is the afflicted client host; victims run on the other client
// hosts of the 4-host cluster (server = 0, gray = 1, victims = 2 and 3).
const grayHost = 1

// GenGrayScenario derives a gray schedule from the class and seed: the
// episode window and every rate/delay are drawn from one seeded RNG, and
// the scenario pins its own plane seed for bit-identical injection replay.
// The window always closes well before the run budget, so recovery (ladder
// step-down, quarantine rejoin) is part of every run.
func GenGrayScenario(class GrayClass, seed uint64) (sc *faults.Scenario, from, until int64, err error) {
	salt, ok := graySalts[class]
	if !ok {
		return nil, 0, 0, fmt.Errorf("chaos: unknown gray class %q", class)
	}
	rng := stats.NewRNG(seed ^ salt)
	sc = &faults.Scenario{
		Name: fmt.Sprintf("gray-%s-%d", class, seed),
		Seed: rng.Uint64() | 1,
	}
	from = us(1500 + rng.Intn(1000)) // past detector warmup (MinSamples)

	switch class {
	case GrayStraggler:
		until = from + us(4000+rng.Intn(3000))
		// Jitter is capped so the widest possible keepalive gap (interval +
		// jitter) stays under the adaptive evict floor (phi≥8 ramp + dwell ≈
		// 812 µs on a tight window) while routinely clearing the 400 µs TTL.
		sc.Stragglers = []faults.Straggler{{
			Node: grayHost, At: from, DurNs: until - from,
			CPUFactor:   1.5 + rng.Float64(),
			NICDelayNs:  us(100 + rng.Intn(100)),
			NICJitterNs: us(600 + rng.Intn(50)),
		}}
		// "Slow but alive": the RC retransmit window on both ends of the
		// jittered path must sit far above the worst jitter, or the
		// transport itself declares the straggler dead (QP error) and the
		// detectors never get to disagree. Scoped to the gray host and the
		// server (the other endpoint of every gray link); victims keep
		// stock tuning.
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 5_000_000, RetryCount: 7,
			Nodes: []int{grayHost, 0}}

	case GrayOneWay:
		until = from + us(2500+rng.Intn(1500))
		sc.Links = []faults.LinkFault{faults.OneWayPartition(grayHost, 0, from, until)}
		// The gray host's RC sends into the silenced direction must error
		// fast so its reconnect path runs instead of a wedged QP. Scoped:
		// victims keep stock retry budgets, or the tight timer would error
		// *their* QPs under ordinary congestion — a leak of its own.
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 5_000, RetryCount: 3,
			Nodes: []int{grayHost}}

	case GrayDegraded:
		until = from + us(4000+rng.Intn(3000))
		delay := us(150 + rng.Intn(100))
		jitter := us(500 + rng.Intn(150)) // same evict-floor cap as straggler
		scale := 2 + 2*rng.Float64()
		sc.Links = []faults.LinkFault{
			faults.DegradedLink(grayHost, 0, from, until, delay, jitter, scale),
			faults.DegradedLink(0, grayHost, from, until, delay, jitter, scale),
		}
		// Same "slow but alive" contract as the straggler class.
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 5_000_000, RetryCount: 7,
			Nodes: []int{grayHost, 0}}

	case GrayKALoss:
		until = from + us(4000+rng.Intn(3000))
		sc.Links = []faults.LinkFault{{
			Src: grayHost, Dst: 0, From: from, Until: until,
			DropRate: 0.7 + 0.1*rng.Float64(), Class: faults.ClassKeepalive,
		}}
	}
	return sc, from, until, sc.Validate()
}

// GrayConfig selects one gray-failure run. Class and Seed are required.
type GrayConfig struct {
	Class GrayClass `json:"class"`
	Seed  uint64    `json:"seed"`
	// Detector is "adaptive" (default: the phi-accrual ladder) or "fixed"
	// (the lease-TTL baseline the ladder replaces).
	Detector string `json:"detector,omitempty"`
}

// A gray run measures grayVictims clients on the healthy hosts with
// grayVictimCalls calls each, plus one client on the gray host with
// grayCalls calls; the hard stop is the echo harnesses' budget.
const (
	grayVictims     = 6
	grayVictimCalls = 40
	grayCalls       = 30
)

// GrayResult is one run's outcome. Same GrayConfig ⇒ byte-identical JSON.
type GrayResult struct {
	Class    string           `json:"class"`
	Seed     uint64           `json:"seed"`
	Detector string           `json:"detector"`
	Scenario *faults.Scenario `json:"scenario"`
	// GrayFromNs/GrayUntilNs bound the episode window.
	GrayFromNs  int64 `json:"gray_from_ns"`
	GrayUntilNs int64 `json:"gray_until_ns"`

	// Victim workload (the bounded-disruption surface).
	VictimIssued   uint64 `json:"victim_issued"`
	VictimAcked    uint64 `json:"victim_acked"`
	VictimTimedOut uint64 `json:"victim_timed_out"`
	VictimErrors   uint64 `json:"victim_errors"`
	VictimP99Ns    int64  `json:"victim_p99_ns"`
	StuckVictims   int    `json:"stuck_victims"`

	// Gray-host workload (best effort: the one-way class takes it down for
	// the whole window plus quarantine).
	GrayIssued   uint64 `json:"gray_issued"`
	GrayAcked    uint64 `json:"gray_acked"`
	GrayTimedOut uint64 `json:"gray_timed_out"`
	GrayDone     bool   `json:"gray_done"`

	// Correctness counters, whole population.
	Executions          uint64 `json:"executions"`
	DuplicateExecutions uint64 `json:"duplicate_executions"`
	EchoMismatches      uint64 `json:"echo_mismatches"`
	Retries             uint64 `json:"retries"`
	DedupHits           uint64 `json:"dedup_hits"`

	// Failure-detection outcome at the server's manager.
	Suspicions     uint64 `json:"suspicions"`
	Demotions      uint64 `json:"demotions"`
	Evictions      uint64 `json:"evictions"` // detector evictions (adaptive)
	LeaseExpiries  uint64 `json:"lease_expiries"`
	FalseEvictions uint64 `json:"false_evictions"`
	Readmits       uint64 `json:"readmits"`
	Probes         uint64 `json:"probes"`
	// ServerDemotes/ServerRestores count the ScaleRPC scheduler's suspect
	// isolation acting on the ladder hooks.
	ServerDemotes  uint64 `json:"server_demotes"`
	ServerRestores uint64 `json:"server_restores"`
	// VictimEvictions counts evictions/expiries of victim-host peers — any
	// nonzero value is an invariant-5 violation in either mode.
	VictimEvictions uint64 `json:"victim_evictions"`
	// DetectionNs is the delay from episode onset to the server's first
	// protective action against the gray peer (demote under the adaptive
	// ladder, lease expiry under fixed TTL); -1 when it never reacted.
	DetectionNs int64 `json:"detection_ns"`

	Violations []string `json:"violations,omitempty"`
	ElapsedNs  int64    `json:"elapsed_ns"`
}

// Pass reports whether every invariant held.
func (r *GrayResult) Pass() bool { return len(r.Violations) == 0 }

// grayPace is the think time between a gray-run client's calls: it
// stretches every client's budget across the whole episode window, so the
// schedule acts on live traffic instead of an idle, already-drained conn.
const grayPace = 150 * sim.Microsecond

// grayCallOpts is the per-call policy for gray runs: the chaos deadlines
// plus the capped, salted retry jitter (each client gets its own salt, so
// a recovered link never sees a synchronized retry wave).
func grayCallOpts(client int) rpccore.CallOpts {
	o := callOpts(ClassDrop)
	o.Hedge = 0
	o.MaxRetryInterval = 480 * sim.Microsecond
	o.RetryJitter = 0.3
	o.JitterSalt = uint64(client) + 1
	return o
}

// RunGray executes one seeded gray-failure schedule and returns its result.
func RunGray(cfg GrayConfig) (*GrayResult, error) {
	switch cfg.Detector {
	case "":
		cfg.Detector = "adaptive"
	case "adaptive", "fixed":
	default:
		return nil, fmt.Errorf("chaos: unknown detector %q (want adaptive or fixed)", cfg.Detector)
	}
	scen, grayFrom, grayUntil, err := GenGrayScenario(cfg.Class, cfg.Seed)
	if err != nil {
		return nil, err
	}

	r := newRun(4, cfg.Seed, budget) // server, gray client host, two victim hosts
	defer r.c.Close()
	r.c.InstallFaults(scen)

	// The control plane must be built with the detector choice before
	// anything else touches it (first CtrlPlaneWith wins).
	ctrlCfg := ctrlplane.DefaultConfig()
	if cfg.Detector == "adaptive" {
		det := ctrlplane.DefaultDetectorConfig()
		ctrlCfg.Detector = &det
	}
	dir := r.c.CtrlPlaneWith(ctrlCfg)
	mgr := dir.Manager(0)
	// Every gray class keeps the node alive, so any eviction is false by
	// ground truth — in both modes, which is what makes them comparable.
	mgr.SetGroundTruth(func(int) bool { return false })

	rel := rpccore.SharedRel(r.c.Telemetry)
	ex := execs{}
	s := r.echoServer(ex, func(s *scalerpc.Server) { s.BindControlPlane(mgr) })
	victimHist := stats.NewHistogram()
	rec := &latRecorder{hist: victimHist}

	// Every client joins through the control plane. A gray-host client's
	// QP may error (one-way class); Poll then rejoins through the control
	// plane — into the quarantine gate, if the detector evicted it.
	spawn := func(h *host.Host, name string, idx, calls int, cr *clientRun, rec *latRecorder) {
		sig := sim.NewSignal(r.c.Env)
		h.Spawn(name, func(th *host.Thread) {
			conn, err := s.Join(th, dir, sig, false)
			if err != nil {
				cr.errs++
				cr.done = true
				return
			}
			caller := rpccore.NewCaller(conn, grayCallOpts(idx), rel)
			driveClient(th, caller, sig, idx, calls, grayPace, r.hardStop, cr, rec)
		})
	}
	// Victims run on the healthy hosts; the single client on the gray host
	// is best-effort through the episode.
	victims := make([]*clientRun, grayVictims)
	for i := range victims {
		victims[i] = &clientRun{}
		spawn(r.c.Hosts[2+i%2], "gray-victim", i, grayVictimCalls, victims[i], rec)
	}
	grayRun := &clientRun{}
	spawn(r.c.Hosts[grayHost], "gray-client", 1000, grayCalls, grayRun, nil)

	// Hold the simulation open past the episode close even once every
	// client has drained: ladder step-down (restore) and quarantine rejoin
	// ride on keepalives, not on workload traffic.
	settleUntil := sim.Time(grayUntil) + 4*sim.Millisecond
	r.drive(100*sim.Microsecond, 0, func() bool {
		return allDone(victims) && grayRun.done && r.c.Env.Now() >= settleUntil
	})
	r.settle()

	res := &GrayResult{
		Class: string(cfg.Class), Seed: cfg.Seed, Detector: cfg.Detector,
		Scenario: scen, GrayFromNs: grayFrom, GrayUntilNs: grayUntil,
		Executions: uint64(len(ex)), Retries: rel.Retries, DedupHits: rel.DedupHits,
		Suspicions: mgr.Stats.DetectorSuspicions, Demotions: mgr.Stats.DetectorDemotions,
		Evictions: mgr.Stats.DetectorEvictions, LeaseExpiries: mgr.Stats.LeaseExpiries,
		FalseEvictions: mgr.Stats.FalseEvictions, Readmits: mgr.Stats.DetectorReadmits,
		Probes:        mgr.Stats.DetectorProbes,
		ServerDemotes: s.Stats.Demotes, ServerRestores: s.Stats.Restores,
		DetectionNs: -1, ElapsedNs: int64(r.c.Env.Now()),
	}
	if victimHist.Count() > 0 {
		res.VictimP99Ns = victimHist.Quantile(0.99)
	}
	// Invariant 1 (whole population), then 2 and 4 for the measured
	// victims and 2 alone for the best-effort gray client.
	res.DuplicateExecutions = ex.atMostOnce(r)
	res.StuckVictims = r.checkClients("victim", victims, ex)
	r.checkAcked("gray client", 0, grayRun, ex)
	for _, cr := range victims {
		res.VictimAcked += uint64(len(cr.acked))
		res.VictimTimedOut += cr.timedOut
		res.VictimErrors += cr.errs
		res.EchoMismatches += cr.mismatch
	}
	res.VictimIssued = grayVictims * grayVictimCalls
	res.GrayIssued = grayCalls
	res.GrayAcked = uint64(len(grayRun.acked))
	res.GrayTimedOut = grayRun.timedOut
	res.GrayDone = grayRun.done
	res.EchoMismatches += grayRun.mismatch

	// Invariant 3: integrity.
	if res.EchoMismatches > 0 {
		r.violate("%d corrupted payloads delivered", res.EchoMismatches)
	}

	// Invariant 5: no eviction of a healthy node. Victim hosts are never
	// touched by any schedule, so their eviction is a violation in both
	// modes. The gray host is alive in every class too — only the one-way
	// class (total inbound silence) excuses evicting it, and only then
	// does the quarantined-rejoin machinery legitimately engage.
	grayEvictExempt := cfg.Class == GrayOneWay
	for _, e := range mgr.Events {
		if e.Kind != "det_evict" && e.Kind != "expire" {
			continue
		}
		if e.Peer != grayHost {
			res.VictimEvictions++
			r.violate("victim host %d evicted at %d ns (%s)", e.Peer, e.At, e.Kind)
			continue
		}
		if cfg.Detector == "adaptive" && !grayEvictExempt {
			r.violate("gray host evicted at %d ns under class %s — alive nodes must be demoted, not evicted",
				e.At, cfg.Class)
		}
		// Fixed-TTL evictions of the gray host are the baseline misfire the
		// matrix documents, not a violation of the baseline's own contract.
	}

	// DetectionNs: first protective action against the gray peer after
	// episode onset.
	reactKind := "demote"
	if cfg.Detector == "fixed" {
		reactKind = "expire"
	}
	for _, e := range mgr.Events {
		if e.Kind == reactKind && e.Peer == grayHost && int64(e.At) >= grayFrom {
			res.DetectionNs = int64(e.At) - grayFrom
			break
		}
	}

	// Invariant 6: bounded disruption — victims drain their budgets nearly
	// unscathed no matter how sick the gray node is.
	if res.VictimAcked*10 < res.VictimIssued*9 {
		r.violate("victim population acked %d/%d (< 90%%): the gray node's sickness leaked",
			res.VictimAcked, res.VictimIssued)
	}
	res.Violations = r.violations
	return res, nil
}
