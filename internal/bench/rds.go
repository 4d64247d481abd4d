package bench

import (
	"fmt"

	"scalerpc/internal/loadgen"
	"scalerpc/internal/rds"
	"scalerpc/internal/sim"
)

func init() {
	register("rdscrossover", "Remote hash table: one-sided vs RPC vs adaptive across Zipf theta x value size x clients", runRDSCrossover)
}

// The crossover sweep holds the op mix fixed and varies the three axes the
// Brock et al. comparison turns on: contention (Zipf theta), transfer size
// (value bytes, which the one-sided backend amplifies into whole-bucket
// READs), and client count (which saturates the RPC server's workers while
// the one-sided path consumes no server CPU at all).
const (
	// rdsPutFraction is the deterministic put share of every workload.
	rdsPutFraction = 0.20
	// rdsKeys is the per-cell key population (all prepopulated, and sized
	// so no bucket of the 1024-bucket table overflows its 4 slots).
	rdsKeys = 512
	// rdsServerWork is the CPU charge per RPC-served op: the handler-side
	// dispatch + execution cost that one-sided operations avoid entirely.
	rdsServerWork = 2 * sim.Microsecond
	// rdsClientHosts spreads clients so their NICs never bottleneck.
	rdsClientHosts = 4
)

// rdsRatePerClient oversubscribes every backend moderately (~2-4x the
// slowest backend's per-client capacity, which is serial), so achieved
// throughput measures capacity without the warmup backlog swamping the
// measurement window: large values move 4 KB buckets per READ, so their
// per-client capacity is an order of magnitude lower.
func rdsRatePerClient(valSize int) float64 {
	if valSize >= 512 {
		return 250_000
	}
	return 600_000
}

// rdsLayout fixes the table geometry for a value size.
func rdsLayout(valSize int) rds.Layout {
	return rds.Layout{Buckets: 1024, SlotsPerBucket: 4, ValSize: valSize, QueueCap: 64}
}

// rdsCellRun is one (backend, theta, valSize, clients) measurement.
type rdsCellRun struct {
	Backend string  `json:"backend"`
	Theta   float64 `json:"theta"`
	ValSize int     `json:"val_size"`
	Clients int     `json:"clients"`

	OfferedMops  float64 `json:"offered_mops"`
	AchievedMops float64 `json:"achieved_mops"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	Completed    uint64  `json:"completed"`
	Errors       uint64  `json:"errors"`

	// Subsystem counters for the cell: where the ops actually went and
	// what the contention machinery did.
	OneSidedOps uint64 `json:"onesided_ops"`
	RPCOps      uint64 `json:"rpc_ops"`
	CASRetries  uint64 `json:"cas_retries"`
	TornRetries uint64 `json:"torn_retries"`
	Switches    uint64 `json:"adaptive_switches,omitempty"`
	Probes      uint64 `json:"adaptive_probes,omitempty"`
	// PrefPutRPC counts adaptive clients that ended the run preferring the
	// RPC backend for puts.
	PrefPutRPC int `json:"adaptive_pref_put_rpc,omitempty"`
}

// rdsRegime summarizes one (theta, valSize, clients) cell across the three
// backends: who won on achieved throughput and how close adaptive came.
type rdsRegime struct {
	Theta   float64 `json:"theta"`
	ValSize int     `json:"val_size"`
	Clients int     `json:"clients"`

	OneSidedMops float64 `json:"onesided_mops"`
	RPCMops      float64 `json:"rpc_mops"`
	AdaptiveMops float64 `json:"adaptive_mops"`

	// Winner is the better pure backend; Margin is its lead over the other
	// (winner/loser - 1).
	Winner string  `json:"winner"`
	Margin float64 `json:"margin"`
	// AdaptiveRatio is adaptive's achieved throughput over the winner's
	// (the acceptance bar is >= 0.9 in every cell).
	AdaptiveRatio float64 `json:"adaptive_ratio"`
}

// rdsCrossArtifact is the machine-readable record for
// BENCH_rds_crossover.json.
type rdsCrossArtifact struct {
	Seed               uint64  `json:"seed"`
	PutFraction        float64 `json:"put_fraction"`
	Keys               int     `json:"keys"`
	ServerWorkNs       int64   `json:"server_work_ns"`
	RatePerClientSmall float64 `json:"rate_per_client_small"`
	RatePerClientLarge float64 `json:"rate_per_client_large"`

	Cells   []rdsCellRun `json:"cells"`
	Regimes []rdsRegime  `json:"regimes"`

	OneSidedWins     int     `json:"onesided_wins"`
	RPCWins          int     `json:"rpc_wins"`
	MinAdaptiveRatio float64 `json:"min_adaptive_ratio"`
	AdaptiveWithin10 bool    `json:"adaptive_within_10pct"`
}

// rdsPoint runs one backend on one cell through loadgen's open-loop runner
// and returns the populated cell record.
func rdsPoint(kind rds.Kind, theta float64, valSize, clients int, opts Options) rdsCellRun {
	// One seed stream per cell shape, shared by the three backends so they
	// face the identical arrival and key sequences.
	c := opts.newCluster(1+rdsClientHosts, uint64(valSize)*1000+uint64(clients)*7+uint64(theta*10))
	defer c.Close()

	rcfg := rds.Config{ServerHost: 0, Layout: rdsLayout(valSize), ServerWork: rdsServerWork}
	d := rds.Deploy(c, rcfg)
	d.Srv.Prepopulate(rdsKeys, 0xab)

	w := loadgen.Workload{
		Name:        fmt.Sprintf("rds-%s-t%.1f-v%d-c%d", kind, theta, valSize, clients),
		OfferedRate: rdsRatePerClient(valSize) * float64(clients),
		Arrival:     loadgen.ArrivalPoisson,
		Warmup:      opts.Warmup,
		Duration:    opts.Duration,
		Seed:        c.Cfg.Seed,
		Tenants: []loadgen.TenantSpec{{
			Name: "rds", Keys: rdsKeys, KeySkew: theta,
			Size: loadgen.FixedSize(valSize),
		}},
	}

	var adas []*rds.Adaptive
	lclients := make([]loadgen.Client, clients)
	for i := range lclients {
		ch := c.Hosts[1+i%rdsClientHosts]
		sig := sim.NewSignal(c.Env)
		cl := d.NewClient(kind, ch, sig)
		if a, ok := cl.(*rds.Adaptive); ok {
			adas = append(adas, a)
		}
		lclients[i] = loadgen.Client{
			Host: ch, Conn: d.NewLoadConn(ch, cl, sig, rdsPutFraction, 4), Sig: sig,
		}
	}
	rep := runOpenLoop(c, opts, fmt.Sprintf("rds/%s/t%.1f/v%d/c%d", kind, theta, valSize, clients), w, lclients)

	cell := rdsCellRun{
		Backend: kind.String(), Theta: theta, ValSize: valSize, Clients: clients,
		OfferedMops: w.OfferedRate / 1e6, AchievedMops: rep.AchievedMops,
		P50Us: rep.Tenants[0].P50Us, P99Us: rep.Tenants[0].P99Us,
		Completed: rep.Completed, Errors: rep.Errors,
		OneSidedOps: d.Stats.OneSidedOps, RPCOps: d.Stats.RPCOps,
		CASRetries: d.Stats.CASRetries, TornRetries: d.Stats.TornRetries,
		Switches: d.Stats.Switches, Probes: d.Stats.Probes,
	}
	for _, a := range adas {
		if a.PreferredPut() == rds.KindRPC {
			cell.PrefPutRPC++
		}
	}
	return cell
}

func rdsAxes(quick bool) (thetas []float64, vals, clients []int) {
	thetas = []float64{0.5, 1.2}
	vals = []int{32, 1024}
	if quick {
		return thetas, vals, []int{16}
	}
	return thetas, vals, []int{8, 32}
}

func runRDSCrossover(opts Options) *Result {
	r := &Result{
		ID: "rdscrossover", Title: "Remote data structures: one-sided vs RPC vs adaptive (open-loop Zipf, saturating rate)",
		XLabel: "cell index", YLabel: "achieved Mops/s",
	}
	thetas, vals, clientCounts := rdsAxes(opts.Quick)

	art := rdsCrossArtifact{
		Seed: opts.Seed, PutFraction: rdsPutFraction, Keys: rdsKeys,
		ServerWorkNs:       int64(rdsServerWork),
		RatePerClientSmall: rdsRatePerClient(32), RatePerClientLarge: rdsRatePerClient(1024),
		MinAdaptiveRatio: 1, AdaptiveWithin10: true,
	}
	tbl := Table{
		Title:  fmt.Sprintf("achieved Mops/s (offered %.0fk/%.0fk ops/s/client small/large values, put fraction %.2f)", rdsRatePerClient(32)/1e3, rdsRatePerClient(1024)/1e3, rdsPutFraction),
		Header: []string{"theta", "val", "clients", "one-sided", "rpc", "adaptive", "winner", "ada/win"},
	}
	backends := []rds.Kind{rds.KindOneSided, rds.KindRPC, rds.KindAdaptive}
	cellIdx := 0
	for _, theta := range thetas {
		for _, val := range vals {
			for _, nc := range clientCounts {
				byKind := map[rds.Kind]rdsCellRun{}
				for _, k := range backends {
					cell := rdsPoint(k, theta, val, nc, opts)
					art.Cells = append(art.Cells, cell)
					byKind[k] = cell
					r.AddPoint(k.String(), float64(cellIdx), cell.AchievedMops)
				}
				one, rpc, ada := byKind[rds.KindOneSided], byKind[rds.KindRPC], byKind[rds.KindAdaptive]
				reg := rdsRegime{
					Theta: theta, ValSize: val, Clients: nc,
					OneSidedMops: one.AchievedMops, RPCMops: rpc.AchievedMops,
					AdaptiveMops: ada.AchievedMops,
				}
				win, lose := one.AchievedMops, rpc.AchievedMops
				reg.Winner = "onesided"
				if rpc.AchievedMops > one.AchievedMops {
					win, lose = rpc.AchievedMops, one.AchievedMops
					reg.Winner = "rpc"
					art.RPCWins++
				} else {
					art.OneSidedWins++
				}
				if lose > 0 {
					reg.Margin = win/lose - 1
				}
				if win > 0 {
					reg.AdaptiveRatio = ada.AchievedMops / win
				}
				if reg.AdaptiveRatio < art.MinAdaptiveRatio {
					art.MinAdaptiveRatio = reg.AdaptiveRatio
				}
				if reg.AdaptiveRatio < 0.9 {
					art.AdaptiveWithin10 = false
				}
				art.Regimes = append(art.Regimes, reg)
				tbl.Rows = append(tbl.Rows, []string{
					fmt.Sprintf("%.1f", theta), fmt.Sprintf("%d", val), fmt.Sprintf("%d", nc),
					fmt.Sprintf("%.3f", one.AchievedMops), fmt.Sprintf("%.3f", rpc.AchievedMops),
					fmt.Sprintf("%.3f", ada.AchievedMops),
					reg.Winner, fmt.Sprintf("%.2f", reg.AdaptiveRatio),
				})
				cellIdx++
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_rds_crossover.json", marshalArtifact(art))
	r.Notef("regimes: one-sided wins %d cells, RPC wins %d cells; min adaptive/winner ratio %.2f (acceptance floor 0.90)",
		art.OneSidedWins, art.RPCWins, art.MinAdaptiveRatio)
	r.Note("one-sided wins the small-value cells (a get is one READ, no server CPU) and loses the large-value cells to bucket-READ bandwidth amplification and the contended cells to CAS-retry convoys; the adaptive backend tracks the winner by steering per-op")
	return r
}
