package main

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

// workload is one pinned scenario. Client counts and configuration are
// fixed here; only the simulated window may ever be trimmed to fit the time
// budget. The seed reaches the cluster RNG and the workload's generators
// (payloads, start phases, arrivals, transactions) and nothing else.
type workload struct {
	Name string
	Why  string
	// Warmup is simulated time before the measurement window, Window the
	// window itself, Drain how long after it in-flight ops may still be
	// answered before they count as abandoned: at least twice the longest
	// drain seen, since a rep stops as soon as nothing is in flight.
	Warmup, Window, Drain sim.Duration
	Hosts                 int
	build                 func(w *workload, c *cluster.Cluster, seed uint64, b *book) *scenario
}

func (w *workload) horizon() sim.Time  { return w.Warmup + w.Window }
func (w *workload) deadline() sim.Time { return w.horizon() + w.Drain }

// scenario is one built rep, ready to run.
type scenario struct {
	serverHosts []*host.Host
	clientHosts []*host.Host
	workers     int // server worker threads across serverHosts
	scale       []*scalerpc.Server
	scaleConns  []*scalerpc.Conn
	coords      []*txn.Coordinator // smallbank only
	shardStats  *shard.Stats       // smallbank only
	// drained reports that nothing is left in flight, so the drain phase
	// may end before the deadline.
	drained func() bool
	// finish collects the rep's outcome after the simulation has stopped.
	finish func() (outcome, error)
}

// failures counts the ops that did not succeed, by cause.
type failures struct {
	Errored   uint64 `json:"errored"`       // the transport reported an error or a timeout
	Wrong     uint64 `json:"wrong_payload"` // the reply did not match the request
	Abandoned uint64 `json:"abandoned"`     // still unanswered at the drain deadline
}

func (f failures) total() uint64 { return f.Errored + f.Wrong + f.Abandoned }

func (f *failures) add(o failures) {
	f.Errored += o.Errored
	f.Wrong += o.Wrong
	f.Abandoned += o.Abandoned
}

// outcome is what one rep did, counted inside the measurement window.
type outcome struct {
	ops       uint64 // RPCs answered (workloads 1–4) or transactions committed (5)
	attempted uint64
	failures
	bytes uint64 // request+reply payload bytes of ops
	lat   *stats.Histogram
	// layer holds workload-specific per-layer values that are not counter
	// deltas (loadgen's report).
	layer map[string]float64
}

const (
	handlerID = 1
	// appCost is the simulated application work per RPC, as in the
	// repo's figure benches.
	appCost = 400
)

var workloads = []*workload{
	{
		Name:   "echo_closed_400",
		Why:    "paper headline (Fig 8 right edge): 400 closed-loop clients, 10 groups rotating, server-CPU-bound; scalerpc scheduler and sim callbacks do the work, NIC caches and LLC stay resident",
		Warmup: sim.Millisecond, Window: 4 * sim.Millisecond, Drain: 3 * sim.Millisecond,
		Hosts: 12,
		build: closedLoop(closedSpec{transport: "scalerpc", clients: 400, batch: 8, payload: echoPayload, handler: echoHandler, check: echoCheck}),
	},
	{
		Name:   "echo_open_256",
		Why:    "latency workload: open-loop Poisson 2.0 Mops offered (a third of capacity) over 256 clients; tail is rotation-bound and idle poll timers dominate host events; throughput must not move",
		Warmup: sim.Millisecond, Window: 8 * sim.Millisecond, Drain: 3 * sim.Millisecond,
		Hosts: 9,
		build: openLoop,
	},
	{
		Name:   "rawwrite_closed_400",
		Why:    "echo_closed_400's load on the RawWrite baseline: 400 private QPs and zones thrash the NIC caches and outgrow the DDIO ways (Fig 3/10); scalerpc is bypassed, so a scalerpc change must not show",
		Warmup: sim.Millisecond, Window: 2 * sim.Millisecond, Drain: 2 * sim.Millisecond,
		Hosts: 12,
		build: closedLoop(closedSpec{transport: "rawrpc", clients: 400, batch: 8, payload: echoPayload, handler: echoHandler, check: echoCheck}),
	},
	{
		Name:   "bulk_getput_120",
		Why:    "per-byte work dominates per-message work: 120 clients, 2 KB puts beside 2 KB gets, so fabric serialisation, DMA line counts, rpcwire encode/CRC/copy and pool footprint show, in both directions",
		Warmup: sim.Millisecond, Window: 8 * sim.Millisecond, Drain: 2 * sim.Millisecond,
		Hosts: 12,
		build: closedLoop(closedSpec{transport: "scalerpc", clients: 120, batch: 4, payload: bulkPayload, handler: bulkHandler, check: bulkCheck}),
	},
	{
		Name:   "smallbank_shard4",
		Why:    "application tier: 48 routed 2PC coordinators, 4 shard hosts x 16 partitions, 100k SmallBank accounts; shard, txn and mica handlers dominate, transport is diluted; the only one with a real set-up",
		Warmup: sim.Millisecond, Window: 4 * sim.Millisecond, Drain: sim.Millisecond,
		Hosts: smallbankShards + 1 + smallbankClientHosts,
		build: smallbankLoop,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// --- closed loop (workloads 1, 3, 4) ---------------------------------

type closedSpec struct {
	transport string // "scalerpc" or "rawrpc"
	clients   int
	batch     int
	payload   func(rng *stats.RNG, buf []byte) int
	handler   rpccore.Handler
	check     func(p pending, reply []byte) bool
}

// echo: 32 B request, same 32 B back. Bytes [0:8] are a seeded random word,
// [8:16] the tag.
func echoPayload(rng *stats.RNG, buf []byte) int {
	binary.LittleEndian.PutUint64(buf, rng.Uint64())
	return 32
}

func echoHandler(t *host.Thread, _ uint16, req, out []byte) int {
	t.Work(appCost)
	return copy(out, req)
}

func echoCheck(p pending, reply []byte) bool {
	return len(reply) == p.reqLen && binary.LittleEndian.Uint64(reply) == p.word && getTag(reply) == p.tag
}

// bulk: the low bit of the seeded word picks put (2 KB request → 8 B reply
// holding the tag) or get (16 B request → 2 KB reply holding the word, and
// the tag at its head and tail).
const bulkSize = 2048

func bulkPayload(rng *stats.RNG, buf []byte) int {
	w := rng.Uint64()
	binary.LittleEndian.PutUint64(buf, w)
	if w&1 == 1 {
		return bulkSize
	}
	return 16
}

func bulkHandler(t *host.Thread, _ uint16, req, out []byte) int {
	t.Work(appCost)
	if len(req) == bulkSize { // put
		copy(out, req[tagOff:tagEnd])
		return 8
	}
	copy(out, req[:tagEnd])
	copy(out[bulkSize-8:], req[tagOff:tagEnd])
	return bulkSize
}

func bulkCheck(p pending, reply []byte) bool {
	if p.reqLen == bulkSize {
		return len(reply) == 8 && binary.LittleEndian.Uint64(reply) == p.tag
	}
	return len(reply) == bulkSize && binary.LittleEndian.Uint64(reply) == p.word &&
		getTag(reply) == p.tag && binary.LittleEndian.Uint64(reply[bulkSize-8:]) == p.tag
}

func closedLoop(spec closedSpec) func(*workload, *cluster.Cluster, uint64, *book) *scenario {
	return func(w *workload, c *cluster.Cluster, seed uint64, b *book) *scenario {
		srv := c.Hosts[0]
		sc := &scenario{serverHosts: c.Hosts[:1], clientHosts: c.Hosts[1:]}
		b.check = spec.check
		handler := b.wrapHandler(spec.handler)

		var connect func(*host.Host, *sim.Signal) rpccore.Conn
		switch spec.transport {
		case "scalerpc":
			cfg := scalerpc.DefaultServerConfig()
			s := scalerpc.NewServer(srv, cfg)
			s.Register(handlerID, handler)
			s.Start()
			sc.scale, sc.workers = []*scalerpc.Server{s}, cfg.Workers
			connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn {
				conn := s.Connect(ch, sig)
				sc.scaleConns = append(sc.scaleConns, conn)
				return conn
			}
		case "rawrpc":
			cfg := rawrpc.DefaultServerConfig()
			s := rawrpc.NewServer(srv, cfg)
			s.Register(handlerID, handler)
			s.Start()
			sc.workers = cfg.Workers
			connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
		default:
			panic("benchmark: unknown transport " + spec.transport)
		}

		horizon, deadline := w.horizon(), w.deadline()
		phase := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		lat := stats.NewHistogram()
		running := spec.clients
		for i := 0; i < spec.clients; i++ {
			ch := sc.clientHosts[i%len(sc.clientHosts)]
			sig := sim.NewSignal(c.Env)
			conn := b.wrap(connect(ch, sig))
			dcfg := rpccore.DriverConfig{
				Batch:       spec.batch,
				Handler:     handlerID,
				PayloadFn:   spec.payload,
				Seed:        seed*7919 + uint64(i),
				MeasureFrom: w.Warmup,
				// Seeded start phases break the lock-step that forms
				// when every client posts at the same instant.
				StartDelay: sim.Duration(phase.Intn(64)) * 311,
			}
			ch.Spawn(fmt.Sprintf("drv%d", i), func(t *host.Thread) {
				st := rpccore.RunDriver(t, []rpccore.Conn{conn}, dcfg, sig, func() bool { return t.P.Now() >= horizon })
				lat.Merge(st.BatchLat)
				drain(t, conn, sig, deadline)
				running--
			})
		}
		sc.drained = func() bool { return running == 0 }
		sc.finish = func() (outcome, error) {
			return outcome{
				ops: b.done, attempted: b.sent, bytes: b.bytes, lat: lat,
				failures: failures{b.errs, b.wrong, b.unanswered()},
			}, nil
		}
		return sc
	}
}

// --- open loop (workload 2) ------------------------------------------

const (
	openClients = 256
	openOffered = 2_000_000.0
	openTenant  = "all"
)

// openLoop is the simspeed macro scenario: loadgen drives 256 ScaleRPC
// connections with Poisson arrivals; latency counts from intended arrival.
func openLoop(w *workload, c *cluster.Cluster, seed uint64, b *book) *scenario {
	srv := c.Hosts[0]
	cfg := scalerpc.DefaultServerConfig()
	s := scalerpc.NewServer(srv, cfg)
	s.Register(handlerID, b.wrapHandler(echoHandler))
	s.Start()
	sc := &scenario{serverHosts: c.Hosts[:1], clientHosts: c.Hosts[1:], workers: cfg.Workers, scale: []*scalerpc.Server{s}}
	b.check = echoCheck

	lw := loadgen.Workload{
		Name:        w.Name,
		OfferedRate: openOffered,
		Arrival:     loadgen.ArrivalPoisson,
		Warmup:      w.Warmup,
		Duration:    w.Window,
		Drain:       w.Drain,
		Seed:        seed,
		Handler:     handlerID,
		Tenants:     []loadgen.TenantSpec{{Name: openTenant, Size: loadgen.FixedSize(32)}},
	}
	cl := make([]loadgen.Client, openClients)
	for i := range cl {
		ch := sc.clientHosts[i%len(sc.clientHosts)]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(ch, sig)
		sc.scaleConns = append(sc.scaleConns, conn)
		cl[i] = loadgen.Client{Host: ch, Conn: b.wrap(conn), Sig: sig}
	}
	runner := loadgen.NewRunner(lw, cl, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)
	done := false
	c.Env.Spawn("bench-drain-watch", func(p *sim.Proc) {
		runner.Done.Wait(p)
		done = true
	})
	sc.drained = func() bool { return done }
	sc.finish = func() (outcome, error) {
		rep := runner.Report()
		lat, _, _, ok := runner.TenantSample(openTenant)
		if !ok {
			return outcome{}, fmt.Errorf("loadgen tenant %q missing", openTenant)
		}
		tr := rep.Tenants[0]
		return outcome{
			ops: rep.Completed, attempted: rep.Offered, lat: lat,
			// Fixed 32 B each way; every reply's length is verified.
			bytes:    rep.Completed * 64,
			failures: failures{rep.Errors, b.wrong, rep.Abandoned},
			layer: map[string]float64{
				"loadgen.queue_p99_us": tr.QueueP99Us,
				"loadgen.backlog_peak": float64(tr.BacklogPeak),
				"loadgen.offered":      float64(rep.Offered),
			},
		}, nil
	}
	return sc
}

// --- smallbank (workload 5) ------------------------------------------

const (
	smallbankShards      = 4
	smallbankPartitions  = 16
	smallbankClientHosts = 4
	smallbankCoords      = 48
	smallbankAccounts    = 100_000
)

func smallbankLoop(w *workload, c *cluster.Cluster, seed uint64, b *book) *scenario {
	shardIDs := make([]int, smallbankShards)
	for i := range shardIDs {
		shardIDs[i] = i
	}
	// Sized for this account count: 200 k rows over 16 partitions.
	store := mica.Config{Buckets: 1 << 13, Items: 1 << 14, SlotSize: 128}
	dcfg := shard.DefaultDeployConfig(smallbankPartitions, shardIDs, smallbankShards, store)
	// One group per shard server. With the default group size of 40 the 48
	// coordinators split 40+8, and the deployment is bistable: SyncGroup
	// aligns the servers' switch instants but not which group each is
	// serving, so when one server slips a switch its parity against the
	// others inverts for good, and 2PC rounds that span it lose a third of
	// their throughput (p99 205 → 335 µs). Which sub-seeds slip is chance, so
	// that configuration cannot serve as a yardstick; see README.
	dcfg.Srv.GroupSize = smallbankCoords
	d := shard.Deploy(c, dcfg)
	sbCfg := smallbank.DefaultConfig()
	sbCfg.Accounts = smallbankAccounts
	sc := &scenario{
		serverHosts: c.Hosts[:smallbankShards],
		clientHosts: c.Hosts[smallbankShards+1:],
		workers:     smallbankShards * dcfg.Srv.Workers,
		coords:      make([]*txn.Coordinator, smallbankCoords),
		shardStats:  d.Stats,
	}
	for _, id := range shardIDs {
		sc.scale = append(sc.scale, d.Servers[id])
	}
	loadErr := smallbank.LoadWith(sbCfg, d.LoadKV)

	horizon := w.horizon()
	lat := stats.NewHistogram()
	var begun, cut, commits uint64
	var balanceDelta int64 // what the committed transactions did to the sum of all balances
	open := make([]bool, smallbankCoords)
	running := smallbankCoords
	for i := 0; i < smallbankCoords; i++ {
		i := i
		ch := sc.clientHosts[i%len(sc.clientHosts)]
		ch.Spawn("sb-coord", func(t *host.Thread) {
			// Deployment.NewCoordinator, with each partition connection
			// wrapped so payload bytes and host time at the router
			// boundary are counted.
			r := d.NewRouter(ch, shard.DefaultRouterConfig())
			conns := make([]rpccore.Conn, smallbankPartitions)
			for p := range conns {
				conns[p] = b.wrap(r.PartConn(p))
			}
			place := func(key []byte) int { return r.Map().PartitionOf(key) }
			co := txn.NewRoutedCoordinator(ch, uint64(i+1), conns, place, r.Signal())
			sc.coords[i] = co
			gen := smallbank.NewGen(sbCfg, seed*733+uint64(i))
			t.P.Sleep(sim.Duration(i%64) * 311)
			var start sim.Time
			var delta int64 // of the latest Apply; the one that commits is the last
			var seen uint64
			var hostStart int64
			next := func() *txn.Txn {
				tx := gen.Next()
				delta = 0
				if apply := tx.Apply; apply != nil {
					tx.Apply = func(rv, wv [][]byte) [][]byte {
						out := apply(rv, wv)
						delta = 0
						for k := range out {
							delta += smallbank.Amount(out[k]) - smallbank.Amount(wv[k])
						}
						return out
					}
				}
				start, open[i] = t.P.Now(), true
				if b.inWindow(start) {
					begun++
				}
				if b.tr != nil {
					hostStart = b.tr.hostNow()
				}
				return tx
			}
			stop := func() bool {
				now := t.P.Now()
				if co.Stats.Commits != seen { // the transaction begun by next() committed
					seen, open[i] = co.Stats.Commits, false
					balanceDelta += delta
					if b.inWindow(now) {
						commits++
						lat.Record(int64(now - start))
					}
					if b.tr != nil {
						b.tr.txns = append(b.tr.txns, txnSpan{Coord: i, Sim: [2]int64{int64(start), int64(now)}, Host: [2]int64{hostStart, b.tr.hostNow()}})
					}
				}
				return now >= horizon
			}
			txn.RunLoop(t, co, next, stop)
			if open[i] && b.inWindow(start) {
				cut++ // aborted at the horizon and dropped by RunLoop: cut off, not failed
			}
			open[i] = false
			running--
		})
	}
	sc.drained = func() bool { return running == 0 }
	sc.finish = func() (outcome, error) {
		if loadErr != nil {
			return outcome{}, loadErr
		}
		out := outcome{ops: commits, attempted: begun - cut, bytes: b.bytes, lat: lat, failures: failures{Errored: b.errs}}
		// A coordinator still inside a transaction at the deadline
		// abandoned it.
		for i := range open {
			if open[i] {
				out.Abandoned++
			}
		}
		// Output check: the stores hold exactly what the committed
		// transactions wrote.
		want := int64(2*sbCfg.Accounts)*sbCfg.InitialBalance + balanceDelta
		var readErr error
		got := smallbank.TotalBalanceWith(sbCfg, func(key []byte) int64 {
			v, err := d.ReadKV(key)
			if err != nil {
				readErr = err
				return 0
			}
			return smallbank.Amount(v)
		})
		if readErr != nil {
			return out, fmt.Errorf("smallbank audit: %w", readErr)
		}
		if got != want {
			return out, fmt.Errorf("smallbank audit: total balance %d, want %d", got, want)
		}
		return out, nil
	}
	return sc
}
