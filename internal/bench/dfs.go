package bench

import (
	"fmt"
	"strings"

	"scalerpc/internal/baseline/table2"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mdtest"
	"scalerpc/internal/octofs"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

func init() {
	register("fig1a", "DFS metadata throughput vs clients (Octopus + selfRPC)", runFig1a)
	register("fig13", "DFS metadata: selfRPC vs ScaleRPC", runFig13)
}

// filesPerClient is each client's preloaded private directory size.
const filesPerClient = 128

// DFSPoint is one metadata data point's measurements.
type DFSPoint struct {
	Completed uint64  // inside the measurement window
	Kops      float64 // completed per second, thousands
	Server    octofs.Stats
}

// MeasureDFS runs nClients mdtest clients, batch requests outstanding
// each, over private preloaded directories of files entries against one
// metadata server reached over selfRPC or ScaleRPC (case-insensitive) —
// the data point behind Figures 1(a) and 13 and cmd/mdtest.
func MeasureDFS(transport string, op mdtest.Op, nClients, files, batch int, opts Options) (DFSPoint, error) {
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	srv := c.Hosts[0]
	mds := octofs.NewMDS(srv, octofs.DefaultConfig())
	if !mds.Preload(nClients, files) {
		return DFSPoint{}, fmt.Errorf("inode table too small for %d clients x %d files", nClients, files)
	}

	var connect table2.Connect
	switch strings.ToLower(transport) {
	case "selfrpc":
		connect = startBaseline(transport, srv, mds.RegisterHandlers)
	case "scalerpc":
		s := scalerpc.NewServer(srv, scalerpc.DefaultServerConfig())
		mds.RegisterHandlers(s)
		s.Start()
		connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
	default:
		return DFSPoint{}, fmt.Errorf("unknown DFS transport %q", transport)
	}

	horizon := opts.Warmup + opts.Duration
	results := make([]*rpccore.DriverStats, nClients)
	for i := 0; i < nClients; i++ {
		i := i
		ch := c.Hosts[1+i%11]
		sig := sim.NewSignal(c.Env)
		conn := connect(ch, sig)
		w := mdtest.NewWorkload(op, i, files, opts.Seed+uint64(i))
		dcfg := w.DriverConfig(batch, opts.Seed+uint64(i))
		dcfg.MeasureFrom = opts.Warmup
		dcfg.StartDelay = sim.Duration(i%64) * 311
		ch.Spawn(fmt.Sprintf("md%d", i), func(t *host.Thread) {
			st := rpccore.RunDriver(t, []rpccore.Conn{conn}, dcfg, sig,
				func() bool { return t.P.Now() >= horizon })
			results[i] = &st
		})
	}
	c.Env.RunUntil(horizon + 200*sim.Microsecond)
	pt := DFSPoint{Server: mds.Stats}
	for _, st := range results {
		if st != nil {
			pt.Completed += st.Completed
		}
	}
	pt.Kops = mops(pt.Completed, opts.Duration) * 1000
	return pt, nil
}

// runDFS is MeasureDFS at the figures' fixed shape, in kops/s.
func runDFS(transport string, op mdtest.Op, nClients int, opts Options) float64 {
	pt, err := MeasureDFS(transport, op, nClients, filesPerClient, 1, opts)
	if err != nil {
		panic(err)
	}
	return pt.Kops
}

func dfsClientSweep(quick bool) []int {
	if quick {
		return []int{40, 120}
	}
	return []int{40, 80, 120}
}

func runFig1a(opts Options) *Result {
	r := &Result{
		ID: "fig1a", Title: "Octopus metadata throughput (self-identified RPC)",
		XLabel: "clients", YLabel: "kops/s",
	}
	for _, n := range dfsClientSweep(opts.Quick) {
		for _, op := range []mdtest.Op{mdtest.Stat, mdtest.Readdir, mdtest.Mknod} {
			r.AddPoint(op.String(), float64(n), runDFS("selfRPC", op, n, opts))
		}
	}
	r.Note("paper: Stat and ReadDir drop ~50% from 40 to 120 clients (RPC-bound); Mknod only ~5% (software-bound)")
	return r
}

func runFig13(opts Options) *Result {
	r := &Result{
		ID: "fig13", Title: "DFS metadata: selfRPC vs ScaleRPC",
		XLabel: "clients", YLabel: "kops/s",
	}
	ops := []mdtest.Op{mdtest.Mknod, mdtest.Rmnod, mdtest.Stat, mdtest.Readdir}
	if opts.Quick {
		ops = []mdtest.Op{mdtest.Mknod, mdtest.Stat}
	}
	for _, n := range dfsClientSweep(opts.Quick) {
		for _, op := range ops {
			self := runDFS("selfRPC", op, n, opts)
			scale := runDFS("ScaleRPC", op, n, opts)
			r.AddPoint(op.String()+"/selfRPC", float64(n), self)
			r.AddPoint(op.String()+"/ScaleRPC", float64(n), scale)
		}
	}
	r.Note("paper: ScaleRPC beats selfRPC by 50–90% on Stat/ReadDir at 80–120 clients, and by 5–6.5% on Mknod/Rmnod")
	return r
}
