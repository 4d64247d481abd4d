package bench

import (
	"fmt"

	"scalerpc/internal/baseline/table2"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

// Every data point is built one way: newCluster gives it its testbed,
// startTransport its server, and one fleet per load shape drives it —
// closed-loop RPC drivers (runDrivers), transaction coordinators
// (runCoordinators) or an open-loop loadgen runner (runOpenLoop).

// newCluster builds the paper testbed with n hosts, seeded o.Seed+salt, and
// installs o's fault scenario (left in c.Faults). When metrics are being
// recorded it also enables trace collection and interval sampling:
// server-side (host 0) hardware metrics and every RPC-transport scope, over
// the warmup and measurement windows.
func (o Options) newCluster(n int, salt uint64) *cluster.Cluster {
	cfg := cluster.Default(n)
	cfg.Seed = o.Seed + salt
	c := cluster.New(cfg)
	if o.Faults != nil {
		c.InstallFaults(o.Faults)
	}
	if o.Metrics == nil {
		return c
	}
	c.Telemetry.EnableTrace()
	// A full trace of a 400-client sweep point is megabytes of JSON; a few
	// thousand events already show the slice/switch cadence.
	c.Telemetry.Trace().Cap = 2048
	horizon := o.Warmup + o.Duration + 200*sim.Microsecond
	interval := (o.Warmup + o.Duration) / 24
	if interval <= 0 {
		interval = 1
	}
	// Server-scoped patterns only: per-client scopes (hundreds of series at
	// paper scale) still appear in the final dump, just not as time series.
	c.Telemetry.Sample(c.Env, interval, horizon,
		"nic0.*", "pcie.bus0.*", "llc0.*", "faults.*", "scalerpc.server.*",
		"rawrpc.server.*", "herdrpc.server.*", "fasstrpc.server.*", "selfrpc.server.*")
	return c
}

// startTransport starts the named transport's server on h: "ScaleRPC"
// (tune, when set, adjusts its default configuration) or a Table 2
// baseline by table2.Start's names. register installs the handlers between
// construction and Start. The ScaleRPC server is returned for pinned
// connects and SyncGroups; it is nil for a baseline.
func startTransport(name string, h *host.Host, register func(rpccore.Server), tune func(*scalerpc.ServerConfig)) (table2.Connect, *scalerpc.Server, error) {
	if name != "ScaleRPC" {
		connect, err := table2.Start(name, h, register)
		return connect, nil, err
	}
	cfg := scalerpc.DefaultServerConfig()
	if tune != nil {
		tune(&cfg)
	}
	s := scalerpc.NewServer(h, cfg)
	register(s)
	s.Start()
	return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, s, nil
}

// startEcho is startTransport serving echoHandler, for transports named in
// code.
func startEcho(name string, h *host.Host, tune func(*scalerpc.ServerConfig)) (table2.Connect, *scalerpc.Server) {
	connect, s, err := startTransport(name, h, func(s rpccore.Server) { s.Register(1, echoHandler) }, tune)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return connect, s
}

// driverClient is one closed-loop client: the host its thread runs on, the
// connections it drives, the signal they share and its driver
// configuration.
type driverClient struct {
	host  *host.Host
	conns []rpccore.Conn
	sig   *sim.Signal
	cfg   rpccore.DriverConfig
}

// runDrivers builds n clients in order and gives each a thread running
// rpccore.RunDriver from the warmup boundary to the warmup+duration
// horizon; the cluster runs to horizon + 200 µs. atWarmup, when set, runs
// at the warmup boundary. A driver that has not returned reports zero
// stats.
func runDrivers(c *cluster.Cluster, opts Options, n int, client func(i int) driverClient, atWarmup func()) []rpccore.DriverStats {
	horizon := opts.Warmup + opts.Duration
	out := make([]rpccore.DriverStats, n)
	for i := range out {
		cl := client(i)
		cl.cfg.MeasureFrom = opts.Warmup
		st := &out[i]
		cl.host.Spawn(fmt.Sprintf("drv%d", i), func(t *host.Thread) {
			*st = rpccore.RunDriver(t, cl.conns, cl.cfg, cl.sig, func() bool { return t.P.Now() >= horizon })
		})
	}
	if atWarmup != nil {
		c.Env.RunUntil(opts.Warmup)
		atWarmup()
	}
	c.Env.RunUntil(horizon + 200*sim.Microsecond)
	return out
}

// merged sums sts' completions and merges their batch latencies.
func merged(sts []rpccore.DriverStats) (uint64, *stats.Histogram) {
	var completed uint64
	lat := stats.NewHistogram()
	for _, st := range sts {
		completed += st.Completed
		if st.BatchLat != nil {
			lat.Merge(st.BatchLat)
		}
	}
	return completed, lat
}

// runCoordinators starts n transaction coordinators: start(i, run) builds
// coordinator i and calls run on its thread, which waits the start stagger
// and runs txn.RunLoop over gen(i) to the warmup+duration horizon; the
// cluster runs to horizon + 500 µs. It returns the commits inside the
// measurement window and the coordinators' summed stats.
func runCoordinators(c *cluster.Cluster, opts Options, n int, gen func(i int) func() *txn.Txn, start func(i int, run func(*host.Thread, *txn.Coordinator))) (uint64, txn.CoordinatorStats) {
	horizon := opts.Warmup + opts.Duration
	commits := make([]uint64, n)
	coords := make([]*txn.Coordinator, n)
	for i := 0; i < n; i++ {
		start(i, func(t *host.Thread, co *txn.Coordinator) {
			coords[i] = co
			next := gen(i)
			t.P.Sleep(sim.Duration(i%64) * 311)
			var measured uint64
			started := false
			txn.RunLoop(t, co, next, func() bool {
				now := t.P.Now()
				if !started && now >= opts.Warmup {
					started = true
					measured = co.Stats.Commits
				}
				return now >= horizon
			})
			if started {
				commits[i] = co.Stats.Commits - measured
			}
		})
	}
	c.Env.RunUntil(horizon + 500*sim.Microsecond)
	var committed uint64
	var sum txn.CoordinatorStats
	for i, co := range coords {
		committed += commits[i]
		if co == nil {
			continue
		}
		sum.Commits += co.Stats.Commits
		sum.LockAborts += co.Stats.LockAborts
		sum.ValidationAborts += co.Stats.ValidationAborts
		sum.OneSidedReads += co.Stats.OneSidedReads
		sum.OneSidedWrites += co.Stats.OneSidedWrites
	}
	return committed, sum
}

// runOpenLoop drives clients open-loop with w: loadgen's runner starts at
// virtual time 0, the cluster runs to its drain deadline + 100 µs, and the
// point's registry dump is recorded under label.
func runOpenLoop(c *cluster.Cluster, opts Options, label string, w loadgen.Workload, clients []loadgen.Client) *loadgen.Report {
	runner := loadgen.NewRunner(w, clients, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)
	c.Env.RunUntil(runner.DrainDeadline() + 100*sim.Microsecond)
	opts.Metrics.Record(label, c)
	return runner.Report()
}
