package smallbank_test

import (
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/txn"
)

func smallCfg() smallbank.Config {
	return smallbank.Config{Accounts: 500, InitialBalance: 1000}
}

func TestMixDistribution(t *testing.T) {
	g := smallbank.NewGen(smallCfg(), 42)
	for i := 0; i < 10000; i++ {
		g.Next()
	}
	// Balance (read-only) ≈ 15%; updates ≈ 85%.
	ro := float64(g.Counts[smallbank.Balance]) / 10000
	if ro < 0.12 || ro > 0.18 {
		t.Fatalf("read-only fraction = %.3f, want ~0.15", ro)
	}
	pay := float64(g.Counts[smallbank.SendPayment]) / 10000
	if pay < 0.21 || pay > 0.29 {
		t.Fatalf("SendPayment fraction = %.3f, want ~0.25", pay)
	}
}

func TestHotspotSkew(t *testing.T) {
	cfg := smallCfg()
	g := smallbank.NewGen(cfg, 7)
	hotN := int(float64(cfg.Accounts) * smallbank.HotFraction)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		tx := g.Next()
		keys := append(append([][]byte{}, tx.Reads...), tx.Writes...)
		for _, k := range keys {
			// Keys are "svNNNNNNNN"/"ckNNNNNNNN".
			acct := 0
			for _, c := range k[2:] {
				acct = acct*10 + int(c-'0')
			}
			if acct < hotN {
				hot++
			}
			break // first key is enough for the skew estimate
		}
	}
	frac := float64(hot) / n
	if frac < 0.55 || frac > 0.70 {
		t.Fatalf("hot-set access fraction = %.3f, want ~0.6", frac)
	}
}

func TestPaymentsConserveMoney(t *testing.T) {
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	cfg := smallCfg()
	var parts []*txn.Participant
	var conns []rpccore.Conn
	sig := sim.NewSignal(c.Env)
	for i := 0; i < 3; i++ {
		p := txn.NewParticipant(c.Hosts[i], mica.Config{Buckets: 1 << 12, Items: 1 << 13, SlotSize: 128})
		rcfg := rawrpc.DefaultServerConfig()
		rcfg.Workers = 2
		rcfg.MaxClients = 8
		srv := rawrpc.NewServer(c.Hosts[i], rcfg)
		p.RegisterHandlers(srv)
		srv.Start()
		parts = append(parts, p)
		conns = append(conns, srv.Connect(c.Hosts[3], sig))
	}
	if err := smallbank.Load(parts, cfg); err != nil {
		t.Fatal(err)
	}
	before := smallbank.TotalBalance(parts, cfg)

	co := txn.NewCoordinator(c.Hosts[3], 1, parts, conns, true, sig)
	horizon := 5 * sim.Millisecond
	var commits uint64
	co.Spawn(func(th *host.Thread, cc *txn.Coordinator) {
		g := smallbank.NewGen(cfg, 99)
		g.OnlyPayments = true
		commits, _ = txn.RunLoop(th, cc, g.Next, func() bool { return th.P.Now() >= horizon })
	})
	c.Env.RunUntil(horizon + 2*sim.Millisecond)
	if commits < 20 {
		t.Fatalf("only %d payments committed", commits)
	}
	after := smallbank.TotalBalance(parts, cfg)
	if before != after {
		t.Fatalf("payments changed total balance: %d → %d", before, after)
	}
}

func TestFullMixRunsAndBalancesAccountable(t *testing.T) {
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	cfg := smallCfg()
	var parts []*txn.Participant
	var conns []rpccore.Conn
	sig := sim.NewSignal(c.Env)
	for i := 0; i < 3; i++ {
		p := txn.NewParticipant(c.Hosts[i], mica.Config{Buckets: 1 << 12, Items: 1 << 13, SlotSize: 128})
		rcfg := rawrpc.DefaultServerConfig()
		rcfg.Workers = 2
		rcfg.MaxClients = 8
		srv := rawrpc.NewServer(c.Hosts[i], rcfg)
		p.RegisterHandlers(srv)
		srv.Start()
		parts = append(parts, p)
		conns = append(conns, srv.Connect(c.Hosts[3], sig))
	}
	if err := smallbank.Load(parts, cfg); err != nil {
		t.Fatal(err)
	}
	co := txn.NewCoordinator(c.Hosts[3], 1, parts, conns, true, sig)
	horizon := 5 * sim.Millisecond
	var commits uint64
	co.Spawn(func(th *host.Thread, cc *txn.Coordinator) {
		g := smallbank.NewGen(cfg, 5)
		commits, _ = txn.RunLoop(th, cc, g.Next, func() bool { return th.P.Now() >= horizon })
	})
	c.Env.RunUntil(horizon + 2*sim.Millisecond)
	if commits < 20 {
		t.Fatalf("only %d txns committed", commits)
	}
	// Every lock must be released at quiescence.
	for a := 0; a < cfg.Accounts; a++ {
		for _, k := range [][]byte{smallbank.SavingsKey(a), smallbank.CheckingKey(a)} {
			p := parts[txn.ShardKey(k, len(parts))]
			if _, err := p.Store.TryLock(nil, k, 31337, nil); err != nil {
				t.Fatalf("row %s left locked: %v", k, err)
			}
			p.Store.Unlock(nil, k, 31337)
		}
	}
}
