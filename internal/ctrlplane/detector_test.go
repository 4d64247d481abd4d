package ctrlplane_test

import (
	"reflect"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/sim"
)

// detConfig returns the default control-plane config with the adaptive
// detector switched on.
func detConfig() ctrlplane.Config {
	cfg := ctrlplane.DefaultConfig()
	cfg.Adaptive = true
	return cfg
}

// lossyPlane builds a 2-host plane (echo server on 0, client on 1) with a
// keepalive-only loss window on the client→server link, dials once, and
// runs past the window. It returns the server manager for assertions.
// alive is the ground-truth oracle installed at the server.
func lossyPlane(t *testing.T, seed uint64, cfg ctrlplane.Config, dropRate float64) *ctrlplane.Manager {
	t.Helper()
	const (
		lossFrom = 1_000_000
		lossTo   = 11_000_000
	)
	cc := cluster.Default(2)
	cc.Seed = seed
	c := cluster.New(cc)
	t.Cleanup(c.Close)
	c.InstallFaults(&faults.Scenario{
		Name: "keepalive-loss",
		Links: []faults.LinkFault{{
			Src: 1, Dst: 0, From: lossFrom, Until: lossTo,
			DropRate: dropRate, Class: faults.ClassKeepalive,
		}},
	})
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	srv := dir.Manager(0)
	srv.RegisterService("echo", ctrlplane.NewEchoService())
	srv.SetGroundTruth(func(int) bool { return false }) // everyone is alive

	dialed := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
			t.Error(err)
		}
		dialed = true
	})
	step(t, c, 5_000_000, func() bool { return dialed && srv.ActiveConns() == 1 })
	c.Env.RunUntil(lossTo + 1_000_000)
	return srv
}

// TestDetectorSurvivesKeepaliveLoss is the headline gray-failure contract:
// a peer whose keepalives are 80% lost but which is perfectly alive must
// stay connected under the adaptive detector (suspected and probed, never
// evicted), while the fixed-TTL lease demonstrably false-evicts it under
// the identical schedule.
func TestDetectorSurvivesKeepaliveLoss(t *testing.T) {
	srv := lossyPlane(t, 1, detConfig(), 0.8)
	st := srv.Stats
	if srv.ActiveConns() != 1 {
		t.Fatalf("active conns = %d, want the lossy-but-alive peer kept", srv.ActiveConns())
	}
	if st.DetectorEvictions != 0 || st.FalseEvictions != 0 || st.LeaseExpiries != 0 {
		t.Fatalf("lossy-but-alive peer evicted: %+v", st)
	}
	if st.DetectorSuspicions == 0 {
		t.Fatal("80% keepalive loss never raised suspicion")
	}
	if st.DetectorProbes == 0 {
		t.Fatal("suspect peer was never probed")
	}
	if srv.PeerStateOf(1) == ctrlplane.PeerEvicted || srv.PeerStateOf(1) == ctrlplane.PeerQuarantined {
		t.Fatalf("peer state = %v after the loss window", srv.PeerStateOf(1))
	}

	// The fixed-TTL twin: same seed, same schedule, no detector. A 400 µs
	// TTL over 100 µs keepalives at 80% loss is certain to lapse.
	srv = lossyPlane(t, 1, ctrlplane.DefaultConfig(), 0.8)
	st = srv.Stats
	if st.LeaseExpiries == 0 {
		t.Fatal("fixed TTL never expired under 80% keepalive loss — the baseline this PR fixes should misfire here")
	}
	if st.FalseEvictions == 0 {
		t.Fatal("fixed-TTL expiry of an alive peer was not counted as a false eviction")
	}
}

// TestDetectorLadderOnCrash walks the full ladder on a genuine death:
// suspect → demote → evict → quarantine, in order, with no false-eviction
// charge (the ground truth agrees the peer is gone).
func TestDetectorLadderOnCrash(t *testing.T) {
	cfg := detConfig()
	c := cluster.New(cluster.Default(2))
	t.Cleanup(c.Close)
	plane := c.InstallFaults(&faults.Scenario{Name: "crash-client"})
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	svc := ctrlplane.NewEchoService()
	srv := dir.Manager(0)
	srv.RegisterService("echo", svc)
	crashed := false
	srv.SetGroundTruth(func(int) bool { return crashed })

	dialed := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
			t.Error(err)
		}
		dialed = true
	})
	step(t, c, 5_000_000, func() bool { return dialed && srv.ActiveConns() == 1 })

	// Warm the window past MinSamples so the ladder (not the TTL net) rules.
	c.Env.RunUntil(c.Env.Now() + 1_000_000)
	crashAt := c.Env.Now()
	crashed = true
	plane.CrashNode(1)
	step(t, c, 5_000_000, func() bool { return srv.ActiveConns() == 0 })

	st := srv.Stats
	if st.DetectorSuspicions == 0 || st.DetectorDemotions == 0 || st.DetectorEvictions != 1 {
		t.Fatalf("ladder counters = %+v, want suspicion, demotion and exactly one eviction", st)
	}
	if st.FalseEvictions != 0 {
		t.Fatalf("%d false evictions charged for a genuinely dead peer", st.FalseEvictions)
	}
	if st.LeaseExpiries != 1 {
		t.Fatalf("lease expiries = %d, want the evicted peer's one connection", st.LeaseExpiries)
	}
	for _, reason := range svc.Dropped {
		if reason != ctrlplane.CloseExpired {
			t.Fatalf("close reason = %v, want expired", reason)
		}
	}

	// The ladder must have walked in escalation order, and the whole
	// detection must land well inside the run (phi ramp + evict dwell).
	rung := map[string]int{}
	var evictAt sim.Time
	for i, e := range srv.Events {
		switch e.Kind {
		case "suspect", "demote", "det_evict", "quarantine":
			if _, dup := rung[e.Kind]; !dup {
				rung[e.Kind] = i
			}
			if e.Kind == "det_evict" {
				evictAt = e.At
			}
		}
	}
	for _, k := range []string{"suspect", "demote", "det_evict", "quarantine"} {
		if _, ok := rung[k]; !ok {
			t.Fatalf("no %q event logged; events: %v", k, srv.Events)
		}
	}
	if !(rung["suspect"] < rung["demote"] && rung["demote"] < rung["det_evict"] && rung["det_evict"] < rung["quarantine"]) {
		t.Fatalf("ladder events out of order: %v", rung)
	}
	if lat := evictAt - crashAt; lat > 2_000_000 {
		t.Fatalf("detection latency %d ns, want the crash called within 2 ms", lat)
	}
	if got := srv.PeerStateOf(1); got != ctrlplane.PeerQuarantined {
		t.Fatalf("peer state = %v, want quarantined after eviction", got)
	}
}

// TestDetectorQuarantineGateAndReadmit evicts a peer via a total one-way
// silence (everything client→server lost — the asymmetric partition where
// even an adaptive detector must eventually give up), then checks the
// rejoin discipline: a dial inside the quarantine lockout is rejected, a
// dial after it readmits the peer with a clean window. The eviction of the
// still-alive peer must also be charged as a false eviction.
func TestDetectorQuarantineGateAndReadmit(t *testing.T) {
	cfg := detConfig()
	c := cluster.New(cluster.Default(2))
	t.Cleanup(c.Close)
	c.InstallFaults(&faults.Scenario{
		Name: "one-way-silence",
		Links: []faults.LinkFault{
			faults.OneWayPartition(1, 0, 1_000_000, 2_600_000),
		},
	})
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	srv := dir.Manager(0)
	srv.RegisterService("echo", ctrlplane.NewEchoService())
	srv.SetGroundTruth(func(int) bool { return false }) // alive throughout

	var lockoutErr, rejoinErr error
	var rejoin *ctrlplane.Conn
	stage := 0
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
			t.Error(err)
		}
		stage = 1
		// The partition evicts us by ~1.9 ms and quarantine holds for
		// 2–3 ms beyond that; 3 ms is inside the lockout for any draw.
		th.P.Sleep(3_000_000 - th.P.Now())
		_, lockoutErr = dir.Manager(1).Dial(th, 0, "echo", nil)
		stage = 2
		th.P.Sleep(6_000_000 - th.P.Now())
		rejoin, rejoinErr = dir.Manager(1).Dial(th, 0, "echo", nil)
		stage = 3
	})
	step(t, c, 10_000_000, func() bool { return stage == 3 })

	if srv.Stats.DetectorEvictions != 1 || srv.Stats.FalseEvictions != 1 {
		t.Fatalf("evictions = %d false = %d, want 1/1 (alive peer, total one-way silence)",
			srv.Stats.DetectorEvictions, srv.Stats.FalseEvictions)
	}
	var rej *ctrlplane.RejectError
	if !errorsAs(lockoutErr, &rej) || rej.Reason != "quarantined" {
		t.Fatalf("dial inside lockout: err = %v, want quarantine reject", lockoutErr)
	}
	if rejoinErr != nil || rejoin == nil {
		t.Fatalf("dial after lockout failed: %v", rejoinErr)
	}
	if srv.Stats.DetectorReadmits != 1 {
		t.Fatalf("readmits = %d, want 1", srv.Stats.DetectorReadmits)
	}
	kinds := map[string]int{}
	for _, e := range srv.Events {
		kinds[e.Kind]++
	}
	if kinds["quarantine"] != 1 || kinds["readmit"] != 1 {
		t.Fatalf("event mix = %v, want one quarantine and one readmit", kinds)
	}
	if got := srv.PeerStateOf(1); got != ctrlplane.PeerHealthy {
		t.Fatalf("peer state = %v after readmission, want healthy", got)
	}
}

// TestDetectorTTLFallbackBeforeMinSamples crashes the client before the
// detector has MinSamples of history: the fixed LeaseTTL safety net must
// still evict, through the expire path, with the ladder untouched.
func TestDetectorTTLFallbackBeforeMinSamples(t *testing.T) {
	cfg := detConfig()
	c := cluster.New(cluster.Default(2))
	t.Cleanup(c.Close)
	plane := c.InstallFaults(&faults.Scenario{Name: "early-crash"})
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	srv := dir.Manager(0)
	srv.RegisterService("echo", ctrlplane.NewEchoService())

	dialed := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
			t.Error(err)
		}
		dialed = true
	})
	step(t, c, 5_000_000, func() bool { return dialed && srv.ActiveConns() == 1 })

	// ~2 keepalive arrivals by 250 µs — below MinSamples (4).
	c.Env.RunUntil(250_000)
	plane.CrashNode(1)
	step(t, c, 10*cfg.LeaseTTL, func() bool { return srv.ActiveConns() == 0 })

	st := srv.Stats
	if st.LeaseExpiries != 1 {
		t.Fatalf("lease expiries = %d, want the TTL net to fire", st.LeaseExpiries)
	}
	if st.DetectorEvictions != 0 || st.DetectorDemotions != 0 {
		t.Fatalf("ladder moved below MinSamples: %+v", st)
	}
	for _, e := range srv.Events {
		if e.Kind == "det_evict" || e.Kind == "quarantine" {
			t.Fatalf("detector event %q logged below MinSamples", e.Kind)
		}
	}
}

// TestDetectorDeterminism replays the lossy-keepalive run: identical seeds
// must reproduce the event log, every detector counter, and the exported
// per-peer phi gauge exactly.
func TestDetectorDeterminism(t *testing.T) {
	type snap struct {
		stats  ctrlplane.Stats
		events []ctrlplane.Event
		tel    map[string]float64
	}
	run := func(seed uint64) snap {
		srv := lossyPlane(t, seed, detConfig(), 0.8)
		reg := srv.Host().Tel.Registry()
		tel := map[string]float64{}
		for _, name := range []string{
			"ctrlplane0.detector.suspicions",
			"ctrlplane0.detector.demotions",
			"ctrlplane0.detector.evictions",
			"ctrlplane0.detector.false_evictions",
			"ctrlplane0.detector.readmits",
			"ctrlplane0.detector.probes",
			"ctrlplane0.detector.pings_rx",
			"ctrlplane0.detector.phi.peer1",
		} {
			v, ok := reg.Value(name)
			if !ok {
				t.Fatalf("telemetry %q not registered", name)
			}
			tel[name] = v
		}
		return snap{stats: srv.Stats, events: append([]ctrlplane.Event(nil), srv.Events...), tel: tel}
	}
	a, b := run(7), run(7)
	if a.stats != b.stats {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("same seed, different event logs (%d vs %d events)", len(a.events), len(b.events))
	}
	if !reflect.DeepEqual(a.tel, b.tel) {
		t.Fatalf("same seed, different telemetry:\n%v\n%v", a.tel, b.tel)
	}
	if a.tel["ctrlplane0.detector.suspicions"] == 0 || a.tel["ctrlplane0.detector.probes"] == 0 {
		t.Fatalf("detector telemetry never moved: %v", a.tel)
	}
}
