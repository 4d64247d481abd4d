package shard

import (
	"runtime"
	"strings"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/txn"
)

// TestAllocBudgetRouted pins the routed-2PC client path on a 4-host, 16-
// partition deployment: an idle router poll pass (the wire lock, four wire
// conns, the deadline sweep) allocates nothing, and one committed two-
// partition SmallBank payment — Coordinator.Run over the router, the wire
// conns and the doorbells, everything the coordinator's thread does until
// the commit returns — stays under a fixed ceiling. It was ~2000 when
// every poll pass built 80 closures, and 2 while SmallBank's Apply built
// its result per call; it reads 0.06 now. The shard servers' side of the
// transaction is not counted here (TestAllocBudgetShardServers counts it).
func TestAllocBudgetRouted(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // allocsUnder needs every allocation recorded
	c, d, ch := buildDeployment(t, 16)
	defer c.Close()
	sbCfg := smallbank.Config{Accounts: 2000, InitialBalance: 1000}
	if err := smallbank.LoadWith(sbCfg, d.LoadKV); err != nil {
		t.Fatal(err)
	}

	const txnCeiling = 1
	var idle, perTxn float64
	done := false
	ch.Spawn("coord", func(th *host.Thread) {
		r := d.NewRouter(ch, DefaultRouterConfig())
		co := d.NewCoordinator(r, 1)
		gen := smallbank.NewGen(sbCfg, 3)
		gen.OnlyPayments = true
		tx := gen.Next()
		for r.Map().PartitionOf(tx.Writes[0]) == r.Map().PartitionOf(tx.Writes[1]) {
			tx = gen.Next()
		}
		commit := func() {
			if err := co.Run(th, tx); err != nil {
				t.Errorf("payment did not commit: %v", err)
			}
		}
		for i := 0; i < 20; i++ {
			commit() // connections reach PROCESS, pools and scratch fill
		}
		const runs = 50
		before := allocsUnder("txn.(*Coordinator).Run")
		for i := 0; i < runs; i++ {
			commit()
		}
		perTxn = float64(allocsUnder("txn.(*Coordinator).Run")-before) / runs
		idle = testing.AllocsPerRun(100, func() { r.pollAll(th) })
		done = true
	})
	for !done && c.Env.Now() < 500*sim.Millisecond {
		c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
	}
	if !done {
		t.Fatal("coordinator did not finish")
	}
	if idle != 0 {
		t.Errorf("idle router poll pass: %v allocs, want 0", idle)
	}
	if perTxn > txnCeiling {
		t.Errorf("committed two-partition payment: %v allocs, ceiling %d", perTxn, txnCeiling)
	}
	t.Logf("committed two-partition payment: %v allocs (ceiling %d)", perTxn, txnCeiling)
}

// allocsUnder returns how many objects have been allocated so far by call
// stacks passing through the function whose name ends in fn. It reads the
// runtime's allocation profile (MemProfileRate must be 1), which — unlike
// testing.AllocsPerRun — can tell one simulated thread's allocations from
// what the rest of the process did while that thread was parked.
func allocsUnder(fn string) int64 {
	runtime.GC() // the profile trails by up to two collection cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:n]
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, fn) {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// smallBankRun is what runSmallBank measured.
type smallBankRun struct {
	c        *cluster.Cluster
	d        *Deployment
	commits  uint64 // committed in the measured span
	mallocs  uint64 // heap allocations, whole process, in the measured span
	notFound uint64 // aborts on a missing row, whole run
	legacy   uint64 // requests the shard servers ran on their legacy threads
}

// runSmallBank runs the SmallBank mix on buildDeployment's 4-host,
// 16-partition deployment with backups: eight routed coordinators on hosts
// 5 and 6 through 1 ms of warm-up (connections reach PROCESS, free lists
// and scratch fill) and then a measured span of span. onLegacy puts every
// routed request on the shard servers' legacy threads (the threshold is
// crossed by the first one), copying each into a legacy body; otherwise
// every handler runs inline on the worker threads, which then share each
// replication link. The caller closes run.c.
func runSmallBank(t *testing.T, onLegacy bool, span sim.Duration) smallBankRun {
	t.Helper()
	return runSmallBankLoaded(t, onLegacy, span, (*Deployment).LoadKV)
}

// runSmallBankLoaded is runSmallBank with the rows loaded through load.
func runSmallBankLoaded(t *testing.T, onLegacy bool, span sim.Duration, load func(d *Deployment, key, value []byte) error) smallBankRun {
	t.Helper()
	c, d, _ := buildDeploymentWith(t, 16, func(cfg *DeployConfig) {
		cfg.Srv.LegacyThreshold = sim.Second
		if onLegacy {
			cfg.Srv.LegacyThreshold = 0
		}
	})
	sbCfg := smallbank.Config{Accounts: 2000, InitialBalance: 1000}
	if err := smallbank.LoadWith(sbCfg, func(k, v []byte) error { return load(d, k, v) }); err != nil {
		c.Close()
		t.Fatal(err)
	}
	const coords = 8
	warm := sim.Millisecond
	horizon := warm + span
	cos := make([]*txn.Coordinator, coords)
	for i := range cos {
		ch := c.Hosts[5+i%2]
		ch.Spawn("sb-coord", func(th *host.Thread) {
			co := d.NewCoordinator(d.NewRouter(ch, DefaultRouterConfig()), uint64(i+1))
			cos[i] = co
			gen := smallbank.NewGen(sbCfg, uint64(i)*977+3)
			txn.RunLoop(th, co, gen.Next, func() bool { return th.P.Now() >= horizon })
		})
	}
	commits := func() uint64 {
		var n uint64
		for _, co := range cos {
			if co != nil {
				n += co.Stats.Commits
			}
		}
		return n
	}
	var before, after runtime.MemStats
	c.Env.RunUntil(warm)
	runtime.ReadMemStats(&before)
	start := commits()
	c.Env.RunUntil(horizon)
	runtime.ReadMemStats(&after)
	run := smallBankRun{c: c, d: d, commits: commits() - start, mallocs: after.Mallocs - before.Mallocs}
	c.Env.RunUntil(horizon + sim.Millisecond) // let the last transactions settle
	for _, co := range cos {
		run.notFound += co.Stats.NotFoundAborts
	}
	for _, srv := range d.Servers {
		run.legacy += srv.Stats.LegacyCalls
	}
	if (run.legacy > 0) != onLegacy {
		c.Close()
		t.Fatalf("legacy calls = %d with onLegacy %v", run.legacy, onLegacy)
	}
	if run.commits < 200 {
		c.Close()
		t.Fatalf("only %d transactions committed in the measured span", run.commits)
	}
	return run
}

// TestAllocBudgetShardServers pins the whole process's heap allocations per
// committed SmallBank transaction, runtime.MemStats.Mallocs over a measured
// span: the coordinators, the shard servers' handlers on every thread,
// their replication forwards, the backups' applies and the legacy hand-off
// all count (TestAllocBudgetRouted counts the coordinator's thread only).
// Both handler placements are run: all on the legacy thread, and all
// inline on the workers. The code before the servers recycled their
// per-call objects read 33.7 (legacy) and 30.6 (inline) here; now 1.2
// and 1.0.
func TestAllocBudgetShardServers(t *testing.T) {
	const ceiling = 4.0
	for _, tc := range []struct {
		name     string
		onLegacy bool
	}{{"legacy", true}, {"inline", false}} {
		t.Run(tc.name, func(t *testing.T) {
			run := runSmallBank(t, tc.onLegacy, 4*sim.Millisecond)
			defer run.c.Close()
			per := float64(run.mallocs) / float64(run.commits)
			t.Logf("%d commits, %.2f allocs per committed transaction (ceiling %v)", run.commits, per, ceiling)
			if per > ceiling {
				t.Errorf("%.2f allocs per committed transaction, ceiling %v", per, ceiling)
			}
		})
	}
}
