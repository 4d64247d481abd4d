package bench

import (
	"fmt"
	"strings"

	"scalerpc/internal/baseline/table2"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/objstore"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/txn"
)

func init() {
	register("fig16a", "Object-store transactions: 5 systems", runFig16a)
	register("fig16b", "SmallBank transactions: 5 systems", runFig16b)
}

// txnSystems in presentation order. ScaleTX-O is ScaleRPC without
// one-sided verbs; ScaleTX co-uses them (§4.2).
var txnSystems = []string{"RawWrite", "HERD", "FaSST", "ScaleTX-O", "ScaleTX"}

const txnParticipants = 3

// TxnWorkload is what a transaction data point runs: how to load the
// participants' stores and the generator each coordinator draws from.
type TxnWorkload struct {
	Load   func([]*txn.Participant) error
	GenFor func(i int) func() *txn.Txn
}

// SmallBankTxns is the SmallBank workload over cfg.
func SmallBankTxns(cfg smallbank.Config, seed uint64) TxnWorkload {
	return TxnWorkload{
		Load:   func(p []*txn.Participant) error { return smallbank.Load(p, cfg) },
		GenFor: func(i int) func() *txn.Txn { return smallbank.NewGen(cfg, seed*733+uint64(i)).Next },
	}
}

// ObjStoreTxns is the object-store workload over cfg.
func ObjStoreTxns(cfg objstore.Config, seed uint64) TxnWorkload {
	return TxnWorkload{
		Load:   func(p []*txn.Participant) error { return objstore.Load(p, cfg) },
		GenFor: func(i int) func() *txn.Txn { return objstore.NewGen(cfg, seed*131+uint64(i)).Next },
	}
}

// TxnPoint is one transaction data point's measurements.
type TxnPoint struct {
	Committed uint64  // inside the measurement window
	Mtxns     float64 // committed per second, millions
	Totals    txn.CoordinatorStats
}

// buildTxnDeployment builds participants on hosts[0:3] with the named
// system (case-insensitive: a Table 2 baseline, ScaleTX-O or ScaleTX) and
// returns a per-client connect function plus the participants.
func buildTxnDeployment(c *cluster.Cluster, system string, storeCfg mica.Config) ([]*txn.Participant, func(ch *host.Host, sig *sim.Signal) []rpccore.Conn, bool, error) {
	parts := make([]*txn.Participant, txnParticipants)
	system = strings.ToLower(system)
	oneSided := system == "scaletx"
	var connFns []table2.Connect
	var scaleSrvs []*scalerpc.Server
	for i := range parts {
		h := c.Hosts[i]
		p := txn.NewParticipant(h, storeCfg)
		parts[i] = p
		if system != "scaletx" && system != "scaletx-o" {
			connect, err := table2.Start(system, h, p.RegisterHandlers)
			if err != nil {
				return nil, nil, false, err
			}
			connFns = append(connFns, connect)
			continue
		}
		cfg := scalerpc.DefaultServerConfig()
		// Multi-server deployments need identical group membership on
		// every server, so the per-server dynamic scheduler is off and
		// clients group statically by join order; the NTP-like sync
		// keeps the switch phases aligned (§4.2).
		cfg.Dynamic = false
		cfg.SyncPeriod = 2 * sim.Millisecond
		s := scalerpc.NewServer(h, cfg)
		p.RegisterHandlers(s)
		s.Start()
		scaleSrvs = append(scaleSrvs, s)
		connFns = append(connFns, func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) })
	}
	if len(scaleSrvs) > 1 {
		// Multi-server ScaleRPC needs global synchronization (§4.2).
		scalerpc.NewSyncGroup(scaleSrvs)
	}
	connect := func(ch *host.Host, sig *sim.Signal) []rpccore.Conn {
		conns := make([]rpccore.Conn, txnParticipants)
		for i, fn := range connFns {
			conns[i] = fn(ch, sig)
		}
		return conns
	}
	return parts, connect, oneSided, nil
}

// MeasureTxn runs nCoords coordinators of the given system over three
// storage servers and reports what they committed in opts.Duration after
// opts.Warmup (the data point behind Figure 16 and cmd/txbench).
func MeasureTxn(system string, nCoords int, storeCfg mica.Config, w TxnWorkload, opts Options) (TxnPoint, error) {
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	parts, connect, oneSided, err := buildTxnDeployment(c, system, storeCfg)
	if err != nil {
		return TxnPoint{}, err
	}
	if err := w.Load(parts); err != nil {
		return TxnPoint{}, err
	}

	horizon := opts.Warmup + opts.Duration
	commits := make([]uint64, nCoords)
	coords := make([]*txn.Coordinator, nCoords)
	clientHosts := 9 // hosts 3..11
	for i := 0; i < nCoords; i++ {
		i := i
		ch := c.Hosts[txnParticipants+i%clientHosts]
		sig := sim.NewSignal(c.Env)
		co := txn.NewCoordinator(ch, uint64(i+1), parts, connect(ch, sig), oneSided, sig)
		coords[i] = co
		gen := w.GenFor(i)
		co.Spawn(func(t *host.Thread, cc *txn.Coordinator) {
			t.P.Sleep(sim.Duration(i%64) * 311)
			var measured uint64
			started := false
			txn.RunLoop(t, cc, gen, func() bool {
				now := t.P.Now()
				if !started && now >= opts.Warmup {
					started = true
					measured = cc.Stats.Commits
				}
				return now >= horizon
			})
			if started {
				commits[i] = cc.Stats.Commits - measured
			}
		})
	}
	c.Env.RunUntil(horizon + 500*sim.Microsecond)
	var pt TxnPoint
	for i, co := range coords {
		pt.Committed += commits[i]
		pt.Totals.Commits += co.Stats.Commits
		pt.Totals.LockAborts += co.Stats.LockAborts
		pt.Totals.ValidationAborts += co.Stats.ValidationAborts
		pt.Totals.OneSidedReads += co.Stats.OneSidedReads
		pt.Totals.OneSidedWrites += co.Stats.OneSidedWrites
	}
	pt.Mtxns = mops(pt.Committed, opts.Duration)
	return pt, nil
}

// runTxnPoint is MeasureTxn for the figures, whose systems and workloads
// are fixed in code.
func runTxnPoint(system string, nCoords int, w TxnWorkload, opts Options) TxnPoint {
	pt, err := MeasureTxn(system, nCoords, txnStoreCfg(opts.Quick), w, opts)
	if err != nil {
		panic(err)
	}
	return pt
}

func txnStoreCfg(quick bool) mica.Config {
	if quick {
		return mica.Config{Buckets: 1 << 15, Items: 1 << 17, SlotSize: 128}
	}
	return mica.Config{Buckets: 1 << 18, Items: 1 << 21, SlotSize: 128}
}

func objKeys(quick bool) int {
	if quick {
		return 50_000
	}
	return 1 << 20
}

func runFig16a(opts Options) *Result {
	r := &Result{
		ID: "fig16a", Title: "Object-store transactions ((r,w) read/write sets)",
		XLabel: "clients", YLabel: "Mtxns/s",
	}
	mixes := []struct {
		name string
		r, w int
	}{{"r4w0", 4, 0}, {"r3w1", 3, 1}}
	counts := []int{80, 160}
	if opts.Quick {
		counts = []int{80}
	}
	for _, mix := range mixes {
		ocfg := objstore.Config{Keys: objKeys(opts.Quick), ValueSize: 40, ReadSet: mix.r, WriteSet: mix.w}
		for _, n := range counts {
			for _, sys := range txnSystems {
				pt := runTxnPoint(sys, n, ObjStoreTxns(ocfg, opts.Seed), opts)
				r.AddPoint(fmt.Sprintf("%s/%s", sys, mix.name), float64(n), pt.Mtxns)
			}
		}
	}
	r.Note("paper: read-only (a.1) ScaleTX == ScaleTX-O; read-write (a.2) ScaleTX beats RawWrite/HERD/FaSST/ScaleTX-O by 131%/60%/51%/10% at 160 clients")
	return r
}

func runFig16b(opts Options) *Result {
	r := &Result{
		ID: "fig16b", Title: "SmallBank transactions",
		XLabel: "clients", YLabel: "Mtxns/s",
	}
	sbCfg := smallbank.DefaultConfig()
	if opts.Quick {
		sbCfg.Accounts = 20_000
	} else {
		sbCfg.Accounts = 1_000_000
	}
	counts := []int{80, 160}
	if opts.Quick {
		counts = []int{80}
	}
	for _, n := range counts {
		for _, sys := range txnSystems {
			pt := runTxnPoint(sys, n, SmallBankTxns(sbCfg, opts.Seed), opts)
			r.AddPoint(sys, float64(n), pt.Mtxns)
			if agg := pt.Totals; sys == "ScaleTX" {
				r.Notef("ScaleTX@%d aborts: lock=%d validation=%d (one-sided reads=%d writes=%d)",
					n, agg.LockAborts, agg.ValidationAborts, agg.OneSidedReads, agg.OneSidedWrites)
			}
		}
	}
	r.Note("paper: at 160 clients ScaleTX beats RawWrite/HERD/FaSST/ScaleTX-O by 160%/73%/79%/26%")
	return r
}
