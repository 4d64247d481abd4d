package bench

import (
	"bytes"
	"strings"
	"testing"

	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/mdtest"
	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

// TestMeasureWindowExcludesWarmupEvents drives a continuous inbound-write
// workload through measureWindow and checks that the reported deltas cover
// only the measurement window — warmup-window events show up in the raw
// cumulative counters but not in the delta.
func TestMeasureWindowExcludesWarmupEvents(t *testing.T) {
	opts := Options{Warmup: 200 * sim.Microsecond, Duration: 400 * sim.Microsecond, Seed: 1}
	rec := &MetricsRecorder{}
	opts.Metrics = rec

	c := opts.newCluster(2, 0)
	defer c.Close()
	srv := c.Hosts[0]
	pool := srv.Mem.Register(4096, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	ch := c.Hosts[1]
	src := ch.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	ccq := ch.NIC.CreateCQ()
	cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
	scq := srv.NIC.CreateCQ()
	sqp := srv.NIC.CreateQP(nic.RC, scq, scq)
	if err := nic.Connect(cqp, sqp); err != nil {
		t.Fatal(err)
	}
	ch.Spawn("writer", func(th *host.Thread) {
		outstanding := 0
		for {
			th.PostSend(cqp, nic.SendWR{
				Op: nic.OpWrite, Signaled: true,
				LKey: src.LKey, LAddr: src.Base, Len: 32,
				RKey: pool.RKey, RAddr: pool.Base,
			})
			outstanding++
			for outstanding >= 4 {
				outstanding -= len(th.WaitCQ(ccq, 4, 5*sim.Microsecond))
			}
		}
	})

	delta := measureWindow(c, opts, "warmup-window")
	total := srv.NIC.Stats.InMessages
	if delta.inMsgs == 0 {
		t.Fatal("no messages measured")
	}
	if delta.inMsgs >= total {
		t.Fatalf("warmup events leaked into the window: delta %d >= total %d",
			delta.inMsgs, total)
	}
	// The warmup and measurement windows see the same steady-state workload,
	// so the delta should be roughly Duration/(Warmup+Duration) of the total.
	frac := float64(delta.inMsgs) / float64(total)
	want := float64(opts.Duration) / float64(opts.Warmup+opts.Duration)
	if frac < want-0.15 || frac > want+0.15 {
		t.Fatalf("window fraction = %.2f, want ≈ %.2f", frac, want)
	}

	// The recorder captured the point, including at least one sampled series.
	if len(rec.Experiments) != 1 || len(rec.Experiments[0].Points) != 1 {
		t.Fatalf("recorder = %+v", rec)
	}
	pt := rec.Experiments[0].Points[0]
	if pt.Label != "warmup-window" {
		t.Fatalf("label = %q", pt.Label)
	}
	if !strings.Contains(string(pt.Metrics), `"series"`) ||
		!strings.Contains(string(pt.Metrics), "nic0.in.messages") {
		t.Fatalf("dump missing series or nic counters: %.200s", pt.Metrics)
	}
}

// TestDriverWarmupWindowExcluded checks the RPC path's window: the driver's
// MeasureFrom discards completions before the warmup boundary, so measured
// throughput reflects only the measurement window.
func TestDriverWarmupWindowExcluded(t *testing.T) {
	base := Options{Warmup: 100 * sim.Microsecond, Duration: 400 * sim.Microsecond, Seed: 1, Quick: true}
	long := base
	long.Warmup = 300 * sim.Microsecond
	run := func(o Options) rpcOut {
		return runRPC(rpcRun{transport: "ScaleRPC", threads: 8, batch: 1, payload: 32, opts: o})
	}
	a, b := run(base), run(long)
	if a.completed == 0 || b.completed == 0 {
		t.Fatal("no completions")
	}
	// Same measurement duration with different warmups → similar counts; if
	// warmup completions leaked, the longer-warmup run would report more.
	ra, rb := float64(a.completed), float64(b.completed)
	if rb > ra*1.3 || rb < ra*0.7 {
		t.Fatalf("window not isolated from warmup: %v vs %v completions", a.completed, b.completed)
	}
}

// TestMetricsJSONDeterministic guards the repo's determinism invariant end
// to end: two full data points with the same (Config, seed) must produce
// byte-identical metrics JSON, including sampled series and trace events.
func TestMetricsJSONDeterministic(t *testing.T) {
	run := func() []byte {
		rec := &MetricsRecorder{}
		rec.Begin("det")
		opts := Options{Warmup: 100 * sim.Microsecond, Duration: 300 * sim.Microsecond,
			Seed: 7, Quick: true, Metrics: rec}
		runRPC(rpcRun{transport: "ScaleRPC", threads: 8, batch: 1, payload: 32, opts: opts})
		return rec.JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different metrics JSON")
	}
	if !strings.Contains(string(a), "scalerpc.server.served") {
		t.Fatal("dump missing scalerpc counters")
	}
}

// TestMetricsJSONDeterministicUnderFaults extends the determinism invariant
// to a lossy run: with a fault scenario installed, every injected drop, every
// retransmission, and every recovery decision comes off the same seeded RNG
// in the same virtual-time order, so two runs still produce byte-identical
// metrics JSON.
func TestMetricsJSONDeterministicUnderFaults(t *testing.T) {
	run := func() []byte {
		rec := &MetricsRecorder{}
		rec.Begin("det-lossy")
		opts := Options{Warmup: 100 * sim.Microsecond, Duration: 300 * sim.Microsecond,
			Seed: 7, Quick: true, Metrics: rec,
			Faults: faults.DropAll("drop2pct", 0.02)}
		runRPC(rpcRun{transport: "ScaleRPC", threads: 8, batch: 1, payload: 32, opts: opts})
		return rec.JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical lossy runs produced different metrics JSON")
	}
	dump := string(a)
	// The reliability counters ride in the same dump: every transport
	// registers the shared RelStats block, so the exactly-once layer's
	// counters must be present (if zero-valued) in any instrumented run.
	for _, name := range []string{
		"faults.injected.drops", "nic0.qp.retransmits",
		"nic0.atomic_ops", "nic0.qp.atomic_replays",
		"rpc.retries", "rpc.hedges", "rpc.dedup_hits",
		"rpc.deadline_exceeded", "rpc.late_drops", "wire.crc_drops",
	} {
		if !strings.Contains(dump, name) {
			t.Fatalf("lossy dump missing %q", name)
		}
	}
}

// TestEveryPointRunnerHonoursFaultsAndMetrics pins that -faults and
// -metrics reach every cluster the experiments build: each point runner,
// run under a 1% drop plan with a recorder attached, records its point(s),
// and every dump carries the installed fault plane's counters.
func TestEveryPointRunnerHonoursFaultsAndMetrics(t *testing.T) {
	small := mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
	bank := smallbank.DefaultConfig()
	bank.Accounts = 1000
	for _, tc := range []struct {
		name   string
		points int
		run    func(Options) error
	}{
		{"runRPC", 1, func(o Options) error {
			runRPC(rpcRun{transport: "ScaleRPC", threads: 8, batch: 1, payload: 32, opts: o})
			return nil
		}},
		{"runLoad", 1, func(o Options) error {
			runLoad(loadRun{transport: "ScaleRPC", clients: 8, opts: o, w: loadgen.Workload{
				Name: "faults-metrics", OfferedRate: 100_000, Arrival: loadgen.ArrivalPoisson,
				Tenants: []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32)}},
			}})
			return nil
		}},
		{"MeasureDFS", 1, func(o Options) error {
			_, err := MeasureDFS("ScaleRPC", mdtest.Stat, 8, 16, 1, o)
			return err
		}},
		{"MeasureTxn", 1, func(o Options) error {
			_, err := MeasureTxn("ScaleTX", 4, small, SmallBankTxns(bank, o.Seed), o)
			return err
		}},
		{"runInboundWrite", 1, func(o Options) error {
			runInboundWrite(4, 64, false, o)
			return nil
		}},
		{"runExtLatency", 1, func(o Options) error {
			runExtLatency(o)
			return nil
		}},
		{"runSec51", 2, func(o Options) error {
			runSec51(o)
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &MetricsRecorder{}
			rec.Begin(tc.name)
			opts := Options{Warmup: 50 * sim.Microsecond, Duration: 200 * sim.Microsecond, Seed: 1, Quick: true,
				Metrics: rec, Faults: faults.DropAll("drop1pct", 0.01)}
			if err := tc.run(opts); err != nil {
				t.Fatal(err)
			}
			pts := rec.Experiments[0].Points
			if len(pts) != tc.points {
				t.Fatalf("recorded %d points, want %d", len(pts), tc.points)
			}
			for _, pt := range pts {
				if !strings.Contains(string(pt.Metrics), "faults.injected.drops") {
					t.Errorf("point %q: dump has no fault-plane counters", pt.Label)
				}
			}
		})
	}
}
