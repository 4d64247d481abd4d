package bench

import (
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/pcie"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

func init() {
	register("fig8", "RPC throughput: clients sweep and client-host sweep", runFig8)
	register("fig9", "RPC latency distribution at 120 clients", runFig9)
	register("fig10", "Hardware-counter analysis: RawWrite vs ScaleRPC", runFig10)
	register("fig11a", "ScaleRPC sensitivity to the time slice size", runFig11a)
	register("fig11b", "ScaleRPC sensitivity to the group size", runFig11b)
	register("fig12", "Priority scheduler under non-uniform access frequencies", runFig12)
}

// transportNames in the paper's presentation order.
var transportNames = []string{"RawWrite", "HERD", "FaSST", "ScaleRPC"}

// echoAppCost is the simulated application work per RPC.
const echoAppCost = 400

func echoHandler(t *host.Thread, _ uint16, req, out []byte) int {
	t.Work(echoAppCost)
	return copy(out, req)
}

// rpcRun describes one RPC throughput/latency data point.
type rpcRun struct {
	transport   string
	threads     int // client threads
	coroutines  int // RPCClients per thread
	clientHosts int
	batch       int
	payload     int
	busyPoll    bool
	// thinkFor, when set, returns client i's fixed think time between
	// batches (Figure 12's access-frequency injection).
	thinkFor func(i int) sim.Duration
	// tuneScale adjusts the ScaleRPC configuration (slice/group sweeps,
	// Static mode).
	tuneScale func(*scalerpc.ServerConfig)
	opts      Options
}

// rpcOut is one data point's measurements.
type rpcOut struct {
	tputMops  float64
	lat       *stats.Histogram
	pcieRd    float64 // Mevents/s at the server
	pcieItoM  float64
	completed uint64
}

// runRPC executes one data point.
func runRPC(r rpcRun) rpcOut {
	if r.coroutines <= 0 {
		r.coroutines = 1
	}
	if r.clientHosts <= 0 {
		r.clientHosts = 11
	}
	c := r.opts.newCluster(1+r.clientHosts, 0)
	defer c.Close()
	srv := c.Hosts[0]
	connect, _ := startEcho(r.transport, srv, r.tuneScale)

	var rdStart pcie.Counters
	sts := runDrivers(c, r.opts, r.threads, func(ti int) driverClient {
		ch := c.Hosts[1+ti%r.clientHosts]
		sig := sim.NewSignal(c.Env)
		conns := make([]rpccore.Conn, r.coroutines)
		for j := range conns {
			conns[j] = connect(ch, sig)
		}
		dcfg := rpccore.DriverConfig{
			Batch:       r.batch,
			Handler:     1,
			PayloadSize: r.payload,
			Seed:        r.opts.Seed*7919 + uint64(ti),
			BusyPoll:    r.busyPoll,
			StartDelay:  sim.Duration(ti%64) * 311,
		}
		if r.thinkFor != nil {
			think := r.thinkFor(ti * r.coroutines)
			dcfg.ThinkTime = func(*stats.RNG) sim.Duration { return think }
		}
		return driverClient{host: ch, conns: conns, sig: sig, cfg: dcfg}
	}, func() { rdStart = srv.Bus.Snapshot() })
	rdEnd := srv.Bus.Snapshot().Sub(rdStart)

	out := rpcOut{}
	out.completed, out.lat = merged(sts)
	out.tputMops = mops(out.completed, r.opts.Duration)
	out.pcieRd = mops(rdEnd.PCIeRdCur, r.opts.Duration)
	out.pcieItoM = mops(rdEnd.PCIeItoM, r.opts.Duration)
	r.opts.Metrics.Record(fmt.Sprintf("%s/t%d/co%d/h%d/b%d/p%d",
		r.transport, r.threads, r.coroutines, r.clientHosts, r.batch, r.payload), c)
	return out
}

func fig8ClientSweep(quick bool) []int {
	if quick {
		return []int{40, 160, 400}
	}
	return []int{40, 80, 120, 160, 200, 240, 280, 320, 360, 400}
}

func runFig8(opts Options) *Result {
	r := &Result{
		ID: "fig8", Title: "RPC throughput (32 B echo)",
		XLabel: "clients", YLabel: "Mops/s",
	}
	batches := []int{1, 8}
	for _, batch := range batches {
		for _, n := range fig8ClientSweep(opts.Quick) {
			for _, tr := range transportNames {
				out := runRPC(rpcRun{
					transport: tr, threads: n, batch: batch, payload: 32, opts: opts,
				})
				r.AddPoint(fmt.Sprintf("%s/b%d", tr, batch), float64(n), out.tputMops)
			}
		}
	}
	// Right half: 40 client threads × 8 coroutines over 1..5 physical
	// hosts, busy-polling (the paper's client-CPU-bound regime).
	hostSweep := []int{1, 2, 3, 4, 5}
	if opts.Quick {
		hostSweep = []int{1, 3, 5}
	}
	for _, hN := range hostSweep {
		for _, tr := range transportNames {
			out := runRPC(rpcRun{
				transport: tr, threads: 40, coroutines: 4, clientHosts: hN,
				batch: 8, payload: 32, busyPoll: true, opts: opts,
			})
			r.AddPoint(fmt.Sprintf("%s/hosts", tr), float64(hN)*1000, out.tputMops)
		}
	}
	r.Note("x values ≥1000 are the host sweep (x/1000 = physical client hosts, 40 threads × 4 coroutines, batch 8)")
	r.Note("paper: ScaleRPC ≈ FaSST flat 40–400 clients; RawWrite collapses; HERD degrades; RC RPCs saturate with ≤2 client hosts, UD RPCs need ≥4")
	return r
}

func runFig9(opts Options) *Result {
	r := &Result{
		ID: "fig9", Title: "Latency CDFs at 120 clients",
		XLabel: "latency (us)", YLabel: "CDF",
	}
	tbl := Table{
		Title:  "latency summary",
		Header: []string{"rpc", "batch", "median(us)", "avg(us)", "max(us)", "tput(Mops)"},
	}
	for _, batch := range []int{1, 8} {
		for _, tr := range transportNames {
			out := runRPC(rpcRun{
				transport: tr, threads: 120, batch: batch, payload: 32, opts: opts,
			})
			label := fmt.Sprintf("%s/b%d", tr, batch)
			xs, ys := out.lat.CDF()
			step := len(xs)/40 + 1
			for i := 0; i < len(xs); i += step {
				r.AddPoint(label, float64(xs[i])/1000, ys[i])
			}
			s := out.lat.Summarize()
			tbl.Rows = append(tbl.Rows, []string{
				tr, fmt.Sprint(batch),
				trimFloat(float64(s.MedianNs) / 1000),
				trimFloat(s.MeanNs / 1000),
				trimFloat(float64(s.MaxNs) / 1000),
				trimFloat(out.tputMops),
			})
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.Note("paper: ScaleRPC bimodal — low median (~4us b1, ~15us b8), higher max at batch 1; UD RPCs show wide 20–200us spectra at batch 8")
	return r
}

func runFig10(opts Options) *Result {
	r := &Result{
		ID: "fig10", Title: "Server PCIe counters: RawWrite vs ScaleRPC",
		XLabel: "clients", YLabel: "Mops/s or Mevents/s",
	}
	for _, n := range fig8ClientSweep(opts.Quick) {
		for _, tr := range []string{"RawWrite", "ScaleRPC"} {
			out := runRPC(rpcRun{transport: tr, threads: n, batch: 8, payload: 32, opts: opts})
			r.AddPoint(tr+"-tput", float64(n), out.tputMops)
			r.AddPoint(tr+"-PCIeRdCur", float64(n), out.pcieRd)
			r.AddPoint(tr+"-PCIeItoM", float64(n), out.pcieItoM)
		}
	}
	r.Note("paper: RawWrite's PCIeRdCur spikes past ~40 clients (QPC/WQE refetches) and PCIeItoM grows with pool size; ScaleRPC keeps both proportional to throughput")
	return r
}

func runFig11a(opts Options) *Result {
	r := &Result{
		ID: "fig11a", Title: "Throughput vs time slice (80 clients, group 40, batch 1)",
		XLabel: "slice (us)", YLabel: "Mops/s",
	}
	slices := []int{30, 50, 100, 150, 200, 250}
	if opts.Quick {
		slices = []int{30, 100, 250}
	}
	for _, sl := range slices {
		sl := sl
		out := runRPC(rpcRun{
			transport: "ScaleRPC", threads: 80, batch: 1, payload: 32, opts: opts,
			tuneScale: func(cfg *scalerpc.ServerConfig) {
				cfg.TimeSlice = sim.Duration(sl) * sim.Microsecond
				cfg.GroupSize = 40
				cfg.Dynamic = false
			},
		})
		r.AddPoint("ScaleRPC", float64(sl), out.tputMops)
		r.AddPoint("p99(us)", float64(sl), float64(out.lat.Quantile(0.99))/1000)
	}
	r.Note("paper: throughput grows 7.6→8.9 Mops/s from 30 to 250us slices; tail latency grows with slice — 100us balances both")
	return r
}

func runFig11b(opts Options) *Result {
	r := &Result{
		ID: "fig11b", Title: "Throughput vs group size (two groups, batch 1)",
		XLabel: "group size", YLabel: "Mops/s",
	}
	groups := []int{10, 20, 30, 40, 50, 60, 70}
	if opts.Quick {
		groups = []int{10, 40, 70}
	}
	for _, g := range groups {
		g := g
		out := runRPC(rpcRun{
			transport: "ScaleRPC", threads: 2 * g, batch: 1, payload: 32, opts: opts,
			tuneScale: func(cfg *scalerpc.ServerConfig) {
				cfg.GroupSize = g
				cfg.Dynamic = false
			},
		})
		r.AddPoint("ScaleRPC", float64(g), out.tputMops)
	}
	r.Note("paper: rises to a peak at group ≈ 40 (small groups under-utilize the NIC; large ones contend in the NIC/CPU caches)")
	return r
}

func runFig12(opts Options) *Result {
	r := &Result{
		ID: "fig12", Title: "Dynamic vs Static scheduling under Gaussian access-frequency skew",
		XLabel: "sigma (x100)", YLabel: "Mops/s",
	}
	nClients := 160
	if opts.Quick {
		nClients = 80
	}
	for _, sigma := range []float64{0.8, 1.0} {
		// Per-client think time ~ |N(mean, sigma*mean)|: some clients post
		// constantly, others mostly idle.
		const meanThink = 40 * sim.Microsecond
		thinks := make([]sim.Duration, nClients)
		rng := stats.NewRNG(opts.Seed + uint64(sigma*100))
		for i := range thinks {
			v := float64(meanThink) * (1 + sigma*rng.NormFloat64())
			if v < 0 {
				v = 0
			}
			thinks[i] = sim.Duration(v)
		}
		for _, mode := range []string{"Static", "Dynamic"} {
			mode := mode
			out := runRPC(rpcRun{
				transport: "ScaleRPC", threads: nClients, batch: 4, payload: 32, opts: opts,
				thinkFor: func(i int) sim.Duration { return thinks[i%len(thinks)] },
				tuneScale: func(cfg *scalerpc.ServerConfig) {
					cfg.Dynamic = mode == "Dynamic"
				},
			})
			r.AddPoint(mode, sigma*100, out.tputMops)
		}
	}
	r.Note("paper: Dynamic outperforms Static by ~9% (sigma 0.8) and ~10% (sigma 1.0)")
	return r
}
