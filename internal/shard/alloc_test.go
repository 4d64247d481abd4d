package shard

import (
	"runtime"
	"strings"
	"testing"

	"scalerpc/internal/host"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

// TestAllocBudgetRouted pins the routed-2PC client path on a 4-host, 16-
// partition deployment: an idle router poll pass (the wire lock, four wire
// conns, the deadline sweep) allocates nothing, and one committed two-
// partition SmallBank payment — Coordinator.Run over the router, the wire
// conns and the doorbells, everything the coordinator's thread does until
// the commit returns — stays under a fixed ceiling (today: the two slices
// SmallBank's Apply returns). It was ~2000 when every poll pass built 80
// closures. The shard servers' side of the transaction is not counted.
func TestAllocBudgetRouted(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // allocsUnder needs every allocation recorded
	c, d, ch := buildDeployment(t, 16)
	defer c.Close()
	sbCfg := smallbank.Config{Accounts: 2000, InitialBalance: 1000, HotFraction: 0.04, HotProbability: 0.6}
	if err := smallbank.LoadWith(sbCfg, d.LoadKV); err != nil {
		t.Fatal(err)
	}

	const txnCeiling = 8
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
