package chaos

// Shard-failover chaos: crash a shard primary mid-run — including mid-2PC —
// while tokened KV writers and a cross-shard transfer coordinator keep
// driving the deployment, then hold the sharded store to the same four
// invariants the transport-level matrix enforces:
//
//  1. At-most-once execution: no put token is fresh-applied by the client
//     path ("exec") more than once, across retries and promotion.
//  2. Acknowledged work durable: every acked put was applied at least once
//     (exec on the primary or repl on the promoted backup).
//  3. Integrity: every value a read delivers is the deterministic fill of
//     some put the workload actually attempted — nothing invented, nothing
//     corrupted.
//  4. Liveness: every client (KV writers and the transfer coordinator)
//     drains its budget before the hard stop.
//
// One seed derives the crash schedule, the cluster RNG and the workload, so
// the same seed produces a byte-identical ShardResult.

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// chaosShardStore sizes the per-partition stores for chaos runs: small but
// roomy enough that inserts never evict.
func chaosShardStore() mica.Config {
	return mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
}

// A shard-failover run drives shardClients tokened KV writers with
// shardOps put/get pairs each and a cross-shard 2PC transfer budget of
// shardTransfers, over shardPartitions partitions, to a hard stop
// shardBudget away.
const (
	shardClients    = 4
	shardOps        = 40
	shardTransfers  = 30
	shardPartitions = 8
	shardBudget     = 60 * sim.Millisecond
)

// ShardResult is one run's outcome. Same seed ⇒ byte-identical JSON.
type ShardResult struct {
	Seed       uint64 `json:"seed"`
	Clients    int    `json:"clients"`
	Ops        int    `json:"ops"`
	Transfers  int    `json:"transfers"`
	Partitions int    `json:"partitions"`
	CrashHost  int    `json:"crash_host"`
	CrashAtNs  int64  `json:"crash_at_ns"`

	Acked       uint64 `json:"acked"`
	PutFailures uint64 `json:"put_failures"`
	Gets        uint64 `json:"gets"`
	GetMisses   uint64 `json:"get_misses"`
	ExecApplies uint64 `json:"exec_applies"`
	ReplApplies uint64 `json:"repl_applies"`

	TxnCommits uint64 `json:"txn_commits"`
	TxnAborts  uint64 `json:"txn_aborts"`

	Failovers  uint64 `json:"failovers"`
	FinalEpoch uint32 `json:"final_epoch"`
	Routed     uint64 `json:"routed"`
	Redirects  uint64 `json:"redirects"`
	DedupHits  uint64 `json:"dedup_hits"`

	StuckClients int      `json:"stuck_clients"`
	Violations   []string `json:"violations,omitempty"`
	ElapsedNs    int64    `json:"elapsed_ns"`
}

// Pass reports whether every invariant held.
func (r *ShardResult) Pass() bool { return len(r.Violations) == 0 }

// shardKey gives client c's k-th key: distinct per writer so the integrity
// check can compare against that writer's own attempted values.
func shardKey(c, k int) []byte {
	key := make([]byte, 8)
	binary.LittleEndian.PutUint64(key, uint64(c)<<16|uint64(k))
	return key
}

// shardValue is the deterministic fill for client c's seq-th put.
func shardValue(c, seq int) []byte {
	return []byte(fmt.Sprintf("c%02d-s%06d", c, seq))
}

// RunShard executes one seeded shard-failover schedule.
func RunShard(seed uint64) (*ShardResult, error) {
	// Topology: shard hosts 0-3, director 4, clients 5-6.
	r := newRun(7, seed, shardBudget)
	defer r.c.Close()
	c := r.c

	dcfg := shard.DefaultDeployConfig(shardPartitions, []int{0, 1, 2, 3}, 4,
		chaosShardStore())
	d := shard.Deploy(c, dcfg)

	// Crash partition 0's primary at a seeded point inside the workload
	// window — mid-run, so in-flight puts and 2PC rounds straddle it.
	crashHost := d.Map.Primary[0]
	crashAt := int64(2*sim.Millisecond) + int64(seed%8)*int64(250*sim.Microsecond)
	c.InstallFaults(&faults.Scenario{
		Name: "shard-crash", Seed: seed,
		Crashes: []faults.Crash{{Node: crashHost, At: crashAt}},
	})

	// Fresh-apply accounting for invariants 1 and 2: every node reports
	// exec (client-path) and repl (backup-path) applies per token.
	ex, repls := execs{}, execs{}
	for _, n := range d.Nodes {
		n.ApplyHook = func(token uint64, kind string) {
			if kind == "exec" {
				ex[token]++
			} else {
				repls[token]++
			}
		}
	}

	rcfg := shard.DefaultRouterConfig()
	rcfg.Opts.Timeout = 500 * sim.Microsecond
	rcfg.Opts.MaxRetries = 25

	// Transfer accounts, preloaded on primaries and backups.
	const accounts = 64
	acct := func(i int) []byte { return []byte(fmt.Sprintf("xfer%04d", i)) }
	money := func(v int64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(v))
		return b
	}
	for i := 0; i < accounts; i++ {
		if err := d.LoadKV(acct(i), money(1000)); err != nil {
			return nil, err
		}
	}

	var gets, misses uint64
	runs := make([]*clientRun, shardClients)
	for i := range runs {
		cr := &clientRun{}
		runs[i] = cr
		ch := c.Hosts[5+i%2]
		ch.Spawn("shard-chaos-kv", func(th *host.Thread) {
			kv := d.NewRouter(ch, rcfg).KVClient(uint16(i + 1))
			attempted := make(map[string]bool)
			for s := 0; s < shardOps && th.P.Now() < r.hardStop; s++ {
				k := shardKey(i, s%8)
				val := shardValue(i, s)
				attempted[string(val)] = true
				if tok, ok := kv.Put(th, k, val); ok {
					cr.acked = append(cr.acked, tok)
				} else {
					cr.errs++
				}
				if got, found, ok := kv.Get(th, k); ok {
					gets++
					if !found {
						misses++
					} else if !attempted[string(got)] {
						// Invariant 3: delivered values are attempted fills.
						r.violate("kv client %d read value %q matching no attempted put", i, got)
					}
				}
				// Pace the workload so ops straddle the crash window and
				// the failover happens under live traffic.
				th.P.Sleep(120 * sim.Microsecond)
			}
			cr.done = true
		})
	}

	// Cross-shard 2PC disturbance: transfers keep running through the
	// crash, so prepares and commits are in flight when the primary dies.
	var commits, aborts uint64
	xfer := &clientRun{}
	c.Hosts[6].Spawn("shard-chaos-txn", func(th *host.Thread) {
		co := d.NewCoordinator(d.NewRouter(c.Hosts[6], rcfg), 99)
		for i := 0; i < shardTransfers && th.P.Now() < r.hardStop; i++ {
			// from != to always: that needs 64 to divide 10i+5, which is odd.
			from, to := acct(i%accounts), acct((i*11+5)%accounts)
			tx := &txn.Txn{
				Writes: [][]byte{from, to},
				Apply: func(rv, wv [][]byte) [][]byte {
					a := int64(binary.LittleEndian.Uint64(wv[0]))
					b := int64(binary.LittleEndian.Uint64(wv[1]))
					return [][]byte{money(a - 1), money(b + 1)}
				},
			}
			for th.P.Now() < r.hardStop {
				err := co.Run(th, tx)
				if err == nil {
					commits++
					break
				}
				aborts++
				if err != txn.ErrAborted {
					break
				}
				th.P.Sleep(20 * sim.Microsecond)
			}
			th.P.Sleep(120 * sim.Microsecond)
		}
		xfer.done = true
	})

	// Run past crash detection even if the workload drained early, so the
	// failover (and its event log) is always part of the result, then let
	// in-flight completions settle.
	r.drive(200*sim.Microsecond, sim.Time(crashAt)+3*sim.Millisecond,
		func() bool { return xfer.done && allDone(runs) })
	r.settle()

	res := &ShardResult{
		Seed: seed, Clients: shardClients, Ops: shardOps,
		Transfers: shardTransfers, Partitions: shardPartitions,
		CrashHost: crashHost, CrashAtNs: crashAt,
		Gets: gets, GetMisses: misses,
		TxnCommits: commits, TxnAborts: aborts,
		Failovers: d.Stats.Failovers, FinalEpoch: d.LiveMap().Epoch,
		Routed: d.Stats.Routed, Redirects: d.Stats.Redirects,
		DedupHits: d.Stats.DedupHits,
		ElapsedNs: int64(c.Env.Now()),
	}
	// Invariant 1: at-most-once fresh client-path application.
	res.ExecApplies = uint64(len(ex)) + ex.atMostOnce(r)
	for _, n := range repls {
		res.ReplApplies += uint64(n)
	}
	for _, cr := range runs {
		res.Acked += uint64(len(cr.acked))
		res.PutFailures += cr.errs
	}
	// Invariants 2 (acked ⇒ applied somewhere) and 4 (liveness).
	res.StuckClients = r.checkClients("kv client", runs, ex, repls) +
		r.checkClients("transfer coordinator", []*clientRun{xfer})
	if res.Failovers == 0 {
		r.violate("crash at %d ns never produced a failover", crashAt)
	}
	res.Violations = r.violations
	return res, nil
}
