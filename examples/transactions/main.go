// Transactions example: ScaleTX (§4.2) running SmallBank over three
// storage servers with globally synchronized ScaleRPC schedulers, co-using
// one-sided RDMA verbs for validation and commit. The example verifies the
// serializability invariant: payments never create or destroy money.
//
//	go run ./examples/transactions
package main

import (
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/txn"
)

func main() {
	c := cluster.New(cluster.Default(6))
	defer c.Close()

	// Three participants, each a MICA shard plus transaction handlers over
	// its own ScaleRPC server; the servers' schedulers are phase-aligned by
	// the NTP-like global synchronization.
	var parts []*txn.Participant
	var servers []*scalerpc.Server
	for i := 0; i < 3; i++ {
		p := txn.NewParticipant(c.Hosts[i], mica.Config{Buckets: 1 << 14, Items: 1 << 16, SlotSize: 128})
		cfg := scalerpc.DefaultServerConfig()
		cfg.Dynamic = false
		cfg.SyncPeriod = 2 * sim.Millisecond
		s := scalerpc.NewServer(c.Hosts[i], cfg)
		p.RegisterHandlers(s)
		s.Start()
		parts = append(parts, p)
		servers = append(servers, s)
	}
	scalerpc.NewSyncGroup(servers)

	sbCfg := smallbank.Config{Accounts: 5000, InitialBalance: 1000}
	if err := smallbank.Load(parts, sbCfg); err != nil {
		panic(err)
	}
	before := smallbank.TotalBalance(parts, sbCfg)
	fmt.Printf("loaded %d accounts (2 rows each) across 3 shards; total balance %d\n",
		sbCfg.Accounts, before)

	// 24 coordinators on 3 client hosts run SendPayment transactions.
	horizon := 5 * sim.Millisecond
	coords := make([]*txn.Coordinator, 24)
	for i := range coords {
		i := i
		ch := c.Hosts[3+i%3]
		sig := sim.NewSignal(c.Env)
		conns := make([]rpccore.Conn, 3)
		for p, s := range servers {
			conns[p] = s.Connect(ch, sig)
		}
		co := txn.NewCoordinator(ch, uint64(i+1), parts, conns, true /* one-sided */, sig)
		coords[i] = co
		co.Spawn(func(t *host.Thread, cc *txn.Coordinator) {
			g := smallbank.NewGen(sbCfg, uint64(i)*977+3)
			g.OnlyPayments = true
			txn.RunLoop(t, cc, g.Next, func() bool { return t.P.Now() >= horizon })
		})
	}
	c.Env.RunUntil(horizon + 2*sim.Millisecond)

	var agg txn.CoordinatorStats
	for _, co := range coords {
		agg.Commits += co.Stats.Commits
		agg.LockAborts += co.Stats.LockAborts
		agg.ValidationAborts += co.Stats.ValidationAborts
		agg.OneSidedReads += co.Stats.OneSidedReads
		agg.OneSidedWrites += co.Stats.OneSidedWrites
	}
	after := smallbank.TotalBalance(parts, sbCfg)
	fmt.Printf("\n%d payments committed in 5ms (%.2f Mtxns/s)\n",
		agg.Commits, float64(agg.Commits)/5e3)
	fmt.Printf("aborts: lock=%d validation=%d; one-sided commits used %d RDMA writes\n",
		agg.LockAborts, agg.ValidationAborts, agg.OneSidedWrites)
	fmt.Printf("balance before=%d after=%d (conserved: %v)\n", before, after, before == after)
	if before != after {
		panic("serializability violated: money created or destroyed")
	}
}
