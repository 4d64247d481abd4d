package bench

import (
	"fmt"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

func init() {
	register("connsetup", "Connection setup latency: cold handshake vs cached resume, vs cluster size", runConnSetup)
	register("churn", "Open-loop SLO under Poisson client join/leave churn: ScaleRPC vs RawWrite", runChurn)
}

// churnPlane builds a control plane provisioned for the experiments here,
// where the whole cluster dials one server manager at once. The serialized
// handshake loop holds the tail dialer for milliseconds (hence the longer
// dial timeout), and while it grinds through ModifyQPs the keepalives of
// already-admitted peers sit unprocessed — so the recv ring must absorb a
// full wave's worth and the lease TTL must outlast it, or the server
// expires clients it only just accepted.
func churnPlane(c *cluster.Cluster) *ctrlplane.Directory {
	cfg := ctrlplane.DefaultConfig()
	cfg.DialTimeout = 2 * sim.Millisecond
	cfg.DialRetries = 5
	cfg.RecvDepth = 1024
	cfg.LeaseTTL = 2 * sim.Millisecond
	return c.CtrlPlaneWith(cfg)
}

// connsetupPoint is one cluster size's measurements for the artifact.
type connsetupPoint struct {
	Clients      int     `json:"clients"`
	ColdMeanUs   float64 `json:"cold_mean_us"`
	ColdP99Us    float64 `json:"cold_p99_us"`
	CachedMeanUs float64 `json:"cached_mean_us"`
	CachedP99Us  float64 `json:"cached_p99_us"`
	// Ratio is cold mean over cached mean — the payoff of connection
	// caching (acceptance floor: >= 10x at full cluster size).
	Ratio     float64         `json:"ratio"`
	ColdNs    []int64         `json:"cold_ns"`
	CachedNs  []int64         `json:"cached_ns"`
	ServerCtl ctrlplane.Stats `json:"server_ctrl_stats"`
}

func connsetupSizes(quick bool) []int {
	if quick {
		return []int{1, 8}
	}
	return []int{1, 4, 16, 64}
}

func runConnSetup(opts Options) *Result {
	r := &Result{
		ID: "connsetup", Title: "Connection setup: cold in-band handshake vs cached resume",
		XLabel: "concurrent dialers (one per host)", YLabel: "setup latency (us)",
	}
	var points []connsetupPoint
	for _, n := range connsetupSizes(opts.Quick) {
		p := connSetupPoint(opts, n)
		r.AddPoint("cold-mean-us", float64(n), p.ColdMeanUs)
		r.AddPoint("cold-p99-us", float64(n), p.ColdP99Us)
		r.AddPoint("cached-mean-us", float64(n), p.CachedMeanUs)
		r.AddPoint("cached-p99-us", float64(n), p.CachedP99Us)
		r.Notef("n=%d: cold %.1fus mean / %.1fus p99, cached %.1fus mean / %.1fus p99 (%.1fx cheaper)",
			n, p.ColdMeanUs, p.ColdP99Us, p.CachedMeanUs, p.CachedP99Us, p.Ratio)
		points = append(points, p)
	}
	r.AddArtifact("BENCH_ctrlplane_connsetup.json", marshalArtifact(points))
	r.Note("cold setup pays CreateQP + the INIT/RTR/RTS ModifyQP ladder on both ends plus the UD handshake RTT, all serialized through the server's manager; a cached resume reuses the parked RTS pair and costs one request/reply exchange")
	return r
}

// connSetupPoint measures one cluster size: n hosts dial the server's echo
// service concurrently (cold), close — parking the pairs in both caches —
// then immediately re-dial (cached resume).
func connSetupPoint(opts Options, n int) connsetupPoint {
	c := opts.newCluster(1+n, 0)
	defer c.Close()
	dir := churnPlane(c)
	dir.Manager(0).RegisterService("echo", ctrlplane.NewEchoService())

	conns := make([]*ctrlplane.Conn, n)
	coldNs := make([]int64, n)
	cachedNs := make([]int64, n)
	payload := []byte("connsetup")

	dialAll := func(out []int64) {
		done := 0
		for i := 0; i < n; i++ {
			i := i
			ch := c.Hosts[1+i]
			ch.Spawn("dialer", func(t *host.Thread) {
				t0 := t.P.Now()
				cp, err := dir.Manager(ch.ID).Dial(t, 0, "echo", payload)
				if err != nil {
					panic(fmt.Sprintf("connsetup: dial failed on host %d: %v", ch.ID, err))
				}
				out[i] = int64(t.P.Now() - t0)
				conns[i] = cp
				done++
			})
		}
		deadline := c.Env.Now() + 50*sim.Millisecond
		for done < n && c.Env.Now() < deadline {
			c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
		}
		if done < n {
			panic(fmt.Sprintf("connsetup: only %d/%d dials finished", done, n))
		}
	}

	dialAll(coldNs)

	// Park every pair in the connection caches.
	closed := 0
	for i := 0; i < n; i++ {
		i := i
		c.Hosts[1+i].Spawn("closer", func(t *host.Thread) {
			conns[i].Close(t)
			closed++
		})
	}
	for closed < n {
		c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
	}

	dialAll(cachedNs)
	for i, cp := range conns {
		if !cp.Cached {
			panic(fmt.Sprintf("connsetup: re-dial %d missed the connection cache", i))
		}
	}

	cold, cached := stats.NewHistogram(), stats.NewHistogram()
	for i := 0; i < n; i++ {
		cold.Record(coldNs[i])
		cached.Record(cachedNs[i])
	}
	return connsetupPoint{
		Clients:      n,
		ColdMeanUs:   cold.Mean() / 1e3,
		ColdP99Us:    float64(cold.Quantile(0.99)) / 1e3,
		CachedMeanUs: cached.Mean() / 1e3,
		CachedP99Us:  float64(cached.Quantile(0.99)) / 1e3,
		Ratio:        cold.Mean() / cached.Mean(),
		ColdNs:       coldNs,
		CachedNs:     cachedNs,
		ServerCtl:    dir.Manager(0).Stats,
	}
}

// memberConn is the churnable subset both managed transports implement:
// an rpccore.Conn that can gracefully depart and later rejoin through the
// control plane.
type memberConn interface {
	rpccore.Conn
	Leave(t *host.Thread)
	Rejoin(t *host.Thread) error
	Left() bool
}

// churnConn drives a precomputed leave/rejoin schedule through a managed
// connection from inside the loadgen client loop: every TrySend/Poll first
// advances the schedule, so departures and (blocking, costed) rejoins
// happen on the owning client thread. While departed, TrySend refuses and
// arrivals pile into the loadgen backlog — the churn cost lands in the
// coordinated-omission-free latency like any other stall.
type churnConn struct {
	mc memberConn
	// schedule alternates absolute leave/rejoin times: [leave0, rejoin0,
	// leave1, rejoin1, ...].
	schedule []sim.Time
	idx      int
	leaves   int
	rejoins  int
}

func (c *churnConn) step(t *host.Thread) {
	for c.idx < len(c.schedule) && t.P.Now() >= c.schedule[c.idx] {
		if c.idx%2 == 0 {
			c.mc.Leave(t)
			c.leaves++
		} else {
			// Retry a failed rejoin on the next pass rather than stranding
			// the client offline for the rest of the run.
			if err := c.mc.Rejoin(t); err != nil {
				return
			}
			c.rejoins++
		}
		c.idx++
	}
}

func (c *churnConn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	c.step(t)
	return c.mc.TrySend(t, handler, payload, reqID)
}

func (c *churnConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	c.step(t)
	return c.mc.Poll(t, fn)
}

func (c *churnConn) Outstanding() int { return c.mc.Outstanding() }
func (c *churnConn) SlotCount() int   { return c.mc.SlotCount() }

// churnSchedule draws one client's Poisson leave process over the
// measurement window: exponential gaps at perClientRate, each departure
// lasting downtime.
func churnSchedule(rng *stats.RNG, perClientRate float64, downtime sim.Duration, from, until sim.Time) []sim.Time {
	if perClientRate <= 0 {
		return nil
	}
	gap := 1e9 / perClientRate // mean inter-leave gap, ns
	var out []sim.Time
	at := from + sim.Duration(rng.Exp(gap))
	for at < until {
		out = append(out, at, at+downtime)
		at += downtime + sim.Duration(rng.Exp(gap))
	}
	return out
}

// churnPoint is one (transport, churn rate) cell of the artifact.
type churnPoint struct {
	Transport  string  `json:"transport"`
	ChurnRate  float64 `json:"churn_rate_per_s"`
	Leaves     int     `json:"leaves"`
	Rejoins    int     `json:"rejoins"`
	P99Us      float64 `json:"p99_us"`
	Completion float64 `json:"completion"`
	Pass       bool    `json:"pass"`
	// ServerCtl shows the control-plane work the churn generated: resumes
	// and cache hits on the server manager.
	ServerCtl ctrlplane.Stats `json:"server_ctrl_stats"`
	Report    *loadgen.Report `json:"report"`
}

const (
	churnClients     = 128
	churnClientHosts = 4
	churnDowntime    = 100 * sim.Microsecond
	churnRate        = 1_000_000 // offered load, requests/s
)

func churnRates(quick bool) []float64 {
	if quick {
		return []float64{0, 10_000}
	}
	return []float64{0, 5_000, 20_000}
}

func runChurn(opts Options) *Result {
	r := &Result{
		ID: "churn", Title: "Open-loop p99 and completion under client churn (128 clients, 1 Mops/s)",
		XLabel: "churn rate (leaves/s, cluster-wide)", YLabel: "p99 (us) / completion",
	}
	var points []churnPoint
	for _, tr := range []string{"RawWrite", "ScaleRPC"} {
		for _, cr := range churnRates(opts.Quick) {
			p := churnCell(opts, tr, cr)
			r.AddPoint(tr+"-p99us", cr, p.P99Us)
			r.AddPoint(tr+"-completion", cr, p.Completion)
			r.Notef("%s @ %g leaves/s: %d leaves / %d rejoins, p99 %.0fus, completion %.4f (SLO pass=%v)",
				tr, cr, p.Leaves, p.Rejoins, p.P99Us, p.Completion, p.Pass)
			points = append(points, p)
		}
	}
	r.AddArtifact("BENCH_ctrlplane_churn.json", marshalArtifact(points))
	r.Note("every departure parks its QP pair in the connection cache, so a rejoin is a cached resume (no CreateQP/ModifyQP); ScaleRPC regroups the survivors while RawWrite keeps sweeping departed zones")
	r.Note("the SLO is the knee objective (p99 <= 2ms at >= 97% completion): a ~100us downtime plus a cached resume stays well inside it, so churn shifts the tail without breaking the floor")
	r.Note("the churn tail is rotation-bound for ScaleRPC — a rejoined client waits out its group's next time slice before its staged requests are fetched — while RawWrite's statically mapped zone answers as soon as the resume lands, at the cost of a sweep footprint that never shrinks")
	return r
}

// churnCell runs one open-loop measurement: join every client through the
// control plane (inside the simulation — dialing blocks), then drive the
// loadgen workload with per-client Poisson leave/rejoin schedules.
func churnCell(opts Options, transport string, rate float64) churnPoint {
	c := opts.newCluster(1+churnClientHosts, 0)
	defer c.Close()
	dir := churnPlane(c)
	srv := c.Hosts[0]

	var join func(t *host.Thread, sig *sim.Signal) (memberConn, error)
	switch transport {
	case "ScaleRPC":
		cfg := scalerpc.DefaultServerConfig()
		s := scalerpc.NewServer(srv, cfg)
		s.Register(1, echoHandler)
		s.Start()
		s.BindControlPlane(dir.Manager(0))
		join = func(t *host.Thread, sig *sim.Signal) (memberConn, error) {
			return s.Join(t, dir, sig, false)
		}
	case "RawWrite":
		cfg := rawrpc.DefaultServerConfig()
		s := rawrpc.NewServer(srv, cfg)
		s.Register(1, echoHandler)
		s.Start()
		s.BindControlPlane(dir.Manager(0))
		join = func(t *host.Thread, sig *sim.Signal) (memberConn, error) {
			return s.Join(t, dir, sig)
		}
	default:
		panic("churn: unknown transport " + transport)
	}

	// Join wave: all clients admit themselves in-band. Starts stagger a
	// little so the serialized server manager sees a ramp, not one burst.
	sigs := make([]*sim.Signal, churnClients)
	mconns := make([]memberConn, churnClients)
	joined := 0
	for i := 0; i < churnClients; i++ {
		i := i
		ch := c.Hosts[1+i%churnClientHosts]
		sigs[i] = sim.NewSignal(c.Env)
		ch.Spawn("join", func(t *host.Thread) {
			t.P.Sleep(sim.Duration(i) * 5 * sim.Microsecond)
			mc, err := join(t, sigs[i])
			if err != nil {
				panic(fmt.Sprintf("churn: join %d failed: %v", i, err))
			}
			mconns[i] = mc
			joined++
		})
	}
	deadline := c.Env.Now() + 100*sim.Millisecond
	for joined < churnClients && c.Env.Now() < deadline {
		c.Env.RunUntil(c.Env.Now() + 200*sim.Microsecond)
	}
	if joined < churnClients {
		panic(fmt.Sprintf("churn: only %d/%d clients joined", joined, churnClients))
	}

	// The arrival streams run from virtual time 0, so the warmup must
	// cover the join wave plus a settling period; measurement starts after.
	w := loadgen.Workload{
		Name:        fmt.Sprintf("%s-churn@%g", transport, rate),
		OfferedRate: churnRate,
		Arrival:     loadgen.ArrivalPoisson,
		Handler:     1,
		Warmup:      sim.Duration(c.Env.Now()) + opts.Warmup,
		Duration:    opts.Duration,
		Seed:        opts.Seed,
		Tenants:     []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32), SLO: kneeSLO()}},
	}

	// Per-client Poisson leave schedules over the measurement window.
	rng := stats.NewRNG(opts.Seed + 7)
	perClient := rate / float64(churnClients)
	horizon := sim.Time(w.Warmup + w.Duration)
	clients := make([]loadgen.Client, churnClients)
	wrapped := make([]*churnConn, churnClients)
	for i := 0; i < churnClients; i++ {
		wrapped[i] = &churnConn{
			mc:       mconns[i],
			schedule: churnSchedule(rng.Split(), perClient, churnDowntime, sim.Time(w.Warmup), horizon),
		}
		clients[i] = loadgen.Client{
			Host:   c.Hosts[1+i%churnClientHosts],
			Conn:   wrapped[i],
			Sig:    sigs[i],
			Tenant: 0,
		}
	}

	rep := runOpenLoop(c, opts, fmt.Sprintf("churn/%s/rate%g", transport, rate), w, clients)
	p := churnPoint{
		Transport: transport,
		ChurnRate: rate,
		P99Us:     rep.Tenants[0].P99Us,
		Pass:      rep.Pass,
		ServerCtl: dir.Manager(0).Stats,
		Report:    rep,
	}
	for _, cc := range wrapped {
		p.Leaves += cc.leaves
		p.Rejoins += cc.rejoins
	}
	if rep.Offered > 0 {
		p.Completion = float64(rep.Completed) / float64(rep.Offered)
	}
	return p
}
