package bench

import (
	"encoding/binary"
	"fmt"
	"sort"

	"scalerpc/internal/chaos"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

func init() {
	register("shardbench", "Sharded KV: SmallBank Mtxns/s vs shard hosts; hot-key coalescing p99", runShardBench)
	register("shardfailover", "Seeded shard-failover matrix: four invariants across crash schedules", runShardFailover)
}

// shardPartitions is fixed across the host sweep so the knee isolates the
// serving capacity, not the placement granularity.
const shardPartitions = 16

// shardStoreCfg sizes each per-partition store to hold its slice of the
// SmallBank table (2 rows per account over shardPartitions partitions).
func shardStoreCfg(quick bool) mica.Config {
	if quick {
		return mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
	}
	return mica.Config{Buckets: 1 << 16, Items: 1 << 18, SlotSize: 128}
}

// shardSmallBankPoint runs nCoords routed coordinators against a sharded
// deployment on shardN hosts and returns committed Mtxns/s.
func shardSmallBankPoint(shardN, nCoords int, sbCfg smallbank.Config, opts Options) (float64, txn.CoordinatorStats) {
	const clientHosts = 4
	c := opts.newCluster(shardN+1+clientHosts, uint64(shardN))
	defer c.Close()

	hosts := make([]int, shardN)
	for i := range hosts {
		hosts[i] = i
	}
	dcfg := shard.DefaultDeployConfig(shardPartitions, hosts, shardN, shardStoreCfg(opts.Quick))
	d := shard.Deploy(c, dcfg)
	if err := smallbank.LoadWith(sbCfg, d.LoadKV); err != nil {
		panic(err)
	}

	// Routed coordinators never post one-sided verbs, so their summed
	// OneSided* stats stay zero.
	total, agg := runCoordinators(c, opts, nCoords, SmallBankTxns(sbCfg, opts.Seed).GenFor, func(i int, run func(*host.Thread, *txn.Coordinator)) {
		ch := c.Hosts[shardN+1+i%clientHosts]
		ch.Spawn("shard-sb-coord", func(t *host.Thread) {
			run(t, d.NewCoordinator(d.NewRouter(ch, shard.DefaultRouterConfig()), uint64(i+1)))
		})
	})
	opts.Metrics.Record(fmt.Sprintf("smallbank/hosts%d", shardN), c)
	return mops(total, opts.Duration), agg
}

// shardHotKeyPoint drives worker threads sharing one router through a
// Zipf-skewed closed-loop read workload and returns the p50/p99 get
// latencies in microseconds.
func shardHotKeyPoint(coalesce bool, opts Options) (p50, p99 float64, coalesced uint64) {
	const (
		workers = 24
		keys    = 1024
		theta   = 1.35
	)
	ops := 400
	if opts.Quick {
		ops = 100
	}
	c := opts.newCluster(6, 100) // 4 shard hosts + director + client
	defer c.Close()
	dcfg := shard.DefaultDeployConfig(shardPartitions, []int{0, 1, 2, 3}, 4, shardStoreCfg(true))
	d := shard.Deploy(c, dcfg)

	key := func(id uint64) []byte {
		k := make([]byte, 8)
		binary.LittleEndian.PutUint64(k, id)
		return k
	}
	for i := uint64(0); i < keys; i++ {
		if err := d.LoadKV(key(i), []byte(fmt.Sprintf("hot-%04d", i))); err != nil {
			panic(err)
		}
	}

	rcfg := shard.DefaultRouterConfig()
	rcfg.Coalesce = coalesce
	ch := c.Hosts[5]
	var lats []float64
	done := 0
	ch.Spawn("shard-hot-lead", func(t *host.Thread) {
		r := d.NewRouter(ch, rcfg)
		for w := 0; w < workers; w++ {
			w := w
			ch.Spawn("shard-hot-worker", func(t *host.Thread) {
				kv := r.KVClient(uint16(w + 1))
				z := stats.NewZipf(stats.NewRNG(opts.Seed*7919+uint64(w)+1), keys, theta)
				for s := 0; s < ops; s++ {
					k := key(z.Next())
					start := t.P.Now()
					if _, found, ok := kv.Get(t, k); ok && found {
						lats = append(lats, float64(t.P.Now()-start)/1000.0)
					}
				}
				done++
			})
		}
	})
	for done < workers && c.Env.Now() < 200*sim.Millisecond {
		c.Env.RunUntil(c.Env.Now() + sim.Time(sim.Millisecond))
	}
	opts.Metrics.Record(fmt.Sprintf("hotkey/coalesce=%v", coalesce), c)
	sort.Float64s(lats)
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	return q(0.50), q(0.99), d.Stats.Coalesced
}

// shardBenchArtifact is the machine-readable record for BENCH_shard_smallbank.json.
type shardBenchArtifact struct {
	Accounts    int                  `json:"accounts"`
	Partitions  int                  `json:"partitions"`
	Coords      int                  `json:"coordinators"`
	Knee        []shardKneePoint     `json:"knee"`
	HotKey      []shardHotKeyResult  `json:"hot_key"`
	Coordinator txn.CoordinatorStats `json:"coordinator_totals"`
}

type shardKneePoint struct {
	ShardHosts int     `json:"shard_hosts"`
	MtxnsPerS  float64 `json:"mtxns_per_s"`
}

type shardHotKeyResult struct {
	Coalesce  bool    `json:"coalesce"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	Coalesced uint64  `json:"coalesced"`
}

func runShardBench(opts Options) *Result {
	r := &Result{
		ID: "shardbench", Title: "Sharded SmallBank knee + Zipf hot-key coalescing",
		XLabel: "shard hosts", YLabel: "Mtxns/s",
	}
	sbCfg := smallbank.DefaultConfig()
	nCoords := 48
	hostCounts := []int{1, 2, 4, 6}
	if opts.Quick {
		sbCfg.Accounts = 20_000
		nCoords = 16
		hostCounts = []int{2, 4}
	} else {
		sbCfg.Accounts = 1_000_000
	}

	art := shardBenchArtifact{
		Accounts: sbCfg.Accounts, Partitions: shardPartitions, Coords: nCoords,
	}
	for _, n := range hostCounts {
		tput, agg := shardSmallBankPoint(n, nCoords, sbCfg, opts)
		r.AddPoint("SmallBank", float64(n), tput)
		art.Knee = append(art.Knee, shardKneePoint{ShardHosts: n, MtxnsPerS: tput})
		art.Coordinator.Commits += agg.Commits
		art.Coordinator.LockAborts += agg.LockAborts
		art.Coordinator.ValidationAborts += agg.ValidationAborts
		r.Notef("SmallBank %d accounts on %d shard hosts: %.3f Mtxns/s (commits=%d lock=%d val=%d)",
			sbCfg.Accounts, n, tput, agg.Commits, agg.LockAborts, agg.ValidationAborts)
	}

	tbl := Table{
		Title:  "Zipf(1.35) hot-key reads, 24 workers sharing one router",
		Header: []string{"coalesce", "p50_us", "p99_us", "coalesced"},
	}
	for _, co := range []bool{false, true} {
		p50, p99, merged := shardHotKeyPoint(co, opts)
		art.HotKey = append(art.HotKey, shardHotKeyResult{Coalesce: co, P50us: p50, P99us: p99, Coalesced: merged})
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%v", co), fmt.Sprintf("%.2f", p50), fmt.Sprintf("%.2f", p99),
			fmt.Sprintf("%d", merged),
		})
	}
	r.Tables = append(r.Tables, tbl)
	if len(art.HotKey) == 2 && art.HotKey[0].P99us > 0 {
		r.Notef("hot-key p99: %.2f µs uncoalesced vs %.2f µs coalesced (%d reads merged)",
			art.HotKey[0].P99us, art.HotKey[1].P99us, art.HotKey[1].Coalesced)
	}
	r.AddArtifact("BENCH_shard_smallbank.json", marshalArtifact(art))
	return r
}

// shardFailoverSeeds covers the acceptance matrix: 20 seeds, but only 8
// distinct runs. The crash point cycles over 8 offsets as seed%8, and rows
// repeat byte for byte for seeds that are equal mod 8. Each row is
// replayable as chaos.RunShard(seed).
var shardFailoverSeeds = 20

func runShardFailover(opts Options) *Result {
	r := &Result{
		ID: "shardfailover", Title: "Seeded shard-failover invariants (crash primary mid-2PC)",
		XLabel: "seed", YLabel: "violations (must be 0)",
	}
	seeds := shardFailoverSeeds
	if opts.Quick {
		seeds = 4
	}
	tbl := Table{
		Title:  "per-seed verdicts",
		Header: []string{"seed", "crash_at_us", "acked", "exec", "repl", "dedup", "epoch", "commits", "violations"},
	}
	var results []*chaos.ShardResult
	var violations int
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		res, err := chaos.RunShard(seed)
		if err != nil {
			panic(err)
		}
		results = append(results, res)
		violations += len(res.Violations)
		r.AddPoint("violations", float64(seed), float64(len(res.Violations)))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", res.Seed), fmt.Sprintf("%d", res.CrashAtNs/1000),
			fmt.Sprintf("%d", res.Acked), fmt.Sprintf("%d", res.ExecApplies),
			fmt.Sprintf("%d", res.ReplApplies), fmt.Sprintf("%d", res.DedupHits),
			fmt.Sprintf("%d", res.FinalEpoch), fmt.Sprintf("%d", res.TxnCommits),
			fmt.Sprintf("%d", len(res.Violations)),
		})
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_shard_failover.json", marshalArtifact(results))
	r.Notef("%d seeded crash schedules, %d invariant violations", seeds, violations)
	return r
}
