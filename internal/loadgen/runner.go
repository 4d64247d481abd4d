package loadgen

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// maxReqSize caps sampled request sizes: every transport in the repository
// uses 4 KB message blocks, and request + response (with wire header and
// trailer) must both fit one block.
const maxReqSize = 2048

// Client binds one open-loop load client to a transport endpoint: the host
// it runs on, the connection it drives, the activity signal the transport
// broadcasts on, and the tenant (index into Workload.Tenants) it belongs
// to. The transport choice — and transport-specific placement such as
// ScaleRPC reserved zones — stays with the caller.
type Client struct {
	Host   *host.Host
	Conn   rpccore.Conn
	Sig    *sim.Signal
	Tenant int
}

// tenantState aggregates one tenant's accounting. The simulator is
// single-threaded, so clients update it directly.
type tenantState struct {
	spec    TenantSpec
	share   float64
	clients int

	offered   uint64 // intended arrivals inside the measurement window
	completed uint64
	abandoned uint64
	errors    uint64
	timeouts  uint64 // subset of errors: Caller deadline expiries

	lat    *stats.Histogram // completion - intended arrival (CO-free)
	qdelay *stats.Histogram // transport accept - intended arrival

	backlog     float64 // current queued-but-unsent requests, all clients
	backlogPeak uint64
}

// pendingReq is one generated request waiting in a client's backlog.
type pendingReq struct {
	intended sim.Time
	size     int
	key      uint64
}

// Runner executes one open-loop workload over a set of clients.
type Runner struct {
	w       Workload
	clients []Client
	tenants []*tenantState

	horizon sim.Time // arrivals stop here (Warmup + Duration)
	endAt   sim.Time // drain deadline
	started bool
	running int // live client procs

	// Done is woken when the last client finishes (drained or deadline).
	Done *sim.Signal
}

// NewRunner builds a runner for w over the given clients. scope names the
// runner's telemetry (pass a detached Scope for none): per-tenant counters,
// gauges and log2 latency histograms register under
// <scope>.tenant.<name>.*. Client tenant indices must be valid.
func NewRunner(w Workload, clients []Client, scope telemetry.Scope) *Runner {
	w = w.withDefaults()
	shares := w.shares()
	r := &Runner{
		w:       w,
		clients: clients,
		horizon: w.Warmup + w.Duration,
	}
	r.endAt = r.horizon + w.Drain
	for i, ts := range w.Tenants {
		t := &tenantState{
			spec:  ts,
			share: shares[i],
		}
		sc := scope.Scope("tenant", ts.Name)
		sc.CounterVar("offered", &t.offered)
		sc.CounterVar("completed", &t.completed)
		sc.CounterVar("abandoned", &t.abandoned)
		sc.CounterVar("errors", &t.errors)
		sc.CounterVar("timeouts", &t.timeouts)
		sc.GaugeVar("backlog", &t.backlog)
		t.lat = sc.Histogram("lat_ns")
		t.qdelay = sc.Histogram("queue_ns")
		r.tenants = append(r.tenants, t)
	}
	for _, c := range clients {
		if c.Tenant < 0 || c.Tenant >= len(r.tenants) {
			panic(fmt.Sprintf("loadgen: client tenant %d out of range", c.Tenant))
		}
		r.tenants[c.Tenant].clients++
	}
	return r
}

// Start spawns one process per client on its host. Call once; then run the
// simulation past the drain deadline (DrainDeadline()) and collect Report.
func (r *Runner) Start(env *sim.Env) {
	if r.started {
		panic("loadgen: Runner started twice")
	}
	r.started = true
	r.Done = sim.NewSignal(env)
	rng := stats.NewRNG(r.w.Seed)
	wrap := r.w.Call != (rpccore.CallOpts{})
	for i := range r.clients {
		c := r.clients[i]
		if wrap {
			// Per-call deadlines/retries/hedging: wrap the transport in a
			// Caller sharing the host registry's reliability counters.
			c.Conn = rpccore.NewCaller(c.Conn, r.w.Call,
				rpccore.SharedRel(c.Host.Tel.Registry()))
		}
		ts := r.tenants[c.Tenant]
		perClient := 0.0
		if ts.clients > 0 {
			perClient = r.w.OfferedRate * ts.share / float64(ts.clients)
		}
		crng := rng.Split()
		cr := &clientRun{
			r:       r,
			c:       c,
			ts:      ts,
			rng:     crng,
			arr:     newArrivalStream(r.w.Arrival, crng.Split(), perClient, r.w.Phases, 0),
			pending: make(map[uint64]pendingReq),
			payload: make([]byte, maxReqSize),
		}
		if ts.spec.Keys > 0 {
			cr.keys = stats.NewZipf(crng.Split(), ts.spec.Keys, ts.spec.KeySkew)
		}
		r.running++
		c.Host.Spawn(fmt.Sprintf("load%d", i), cr.run)
	}
}

// TenantSample exposes a tenant's live cumulative latency histogram and
// offered/completed counts so an online controller can evaluate sliding
// SLO windows (via stats.Histogram.DeltaSince) while the workload runs.
// The returned histogram is the live object: snapshot it, don't mutate it.
func (r *Runner) TenantSample(name string) (lat *stats.Histogram, offered, completed uint64, ok bool) {
	for _, ts := range r.tenants {
		if ts.spec.Name == name {
			return ts.lat, ts.offered, ts.completed, true
		}
	}
	return nil, 0, 0, false
}

// DrainDeadline returns the virtual time by which every client has exited.
func (r *Runner) DrainDeadline() sim.Time { return r.endAt }

// clientRun is one client's loop state.
type clientRun struct {
	r    *Runner
	c    Client
	ts   *tenantState
	rng  *stats.RNG
	arr  *arrivalStream
	keys *stats.Zipf
	// backlog[head:] are the generated requests not yet sent, oldest
	// first. pop slides them back to the front once the sent prefix is as
	// long as what remains, so arrivals reuse the array instead of
	// re-allocating it.
	backlog []pendingReq
	head    int
	pending map[uint64]pendingReq // reqID → request (intended time et al.)
	seq     uint64
	payload []byte
}

// queued returns the unsent requests, oldest first.
func (cr *clientRun) queued() []pendingReq { return cr.backlog[cr.head:] }

// pop drops the oldest unsent request.
func (cr *clientRun) pop() {
	cr.head++
	if 2*cr.head >= len(cr.backlog) {
		cr.backlog = cr.backlog[:copy(cr.backlog, cr.backlog[cr.head:])]
		cr.head = 0
	}
}

// inWindow reports whether an intended arrival time is measured.
func (cr *clientRun) inWindow(at sim.Time) bool {
	return at >= cr.r.w.Warmup && at < cr.r.horizon
}

// run is the open-loop client loop: generate due arrivals into the
// backlog, poll completions, push the backlog into the transport, sleep
// until the next arrival or activity. Latency is completion minus
// *intended* arrival, so time spent in the backlog (transport saturated,
// ScaleRPC context-switch wait, RC retransmission) is part of every
// recorded sample — no coordinated omission.
func (cr *clientRun) run(t *host.Thread) {
	r := cr.r
	// Built once, not per poll: idle polls far outnumber responses.
	collect := func(resp rpccore.Response) {
		req, ok := cr.pending[resp.ReqID]
		if !ok {
			return
		}
		delete(cr.pending, resp.ReqID)
		if !cr.inWindow(req.intended) {
			return
		}
		if resp.Err {
			cr.ts.errors++
			if resp.TimedOut {
				cr.ts.timeouts++
			}
			return
		}
		cr.ts.completed++
		cr.ts.lat.Record(int64(t.P.Now() - req.intended))
	}
	for {
		now := t.P.Now()

		// Generate every arrival due by now (still capped at the horizon).
		for cr.arr.peek() <= now && cr.arr.peek() < r.horizon {
			at := cr.arr.pop()
			req := pendingReq{intended: at, size: cr.ts.spec.Size.Sample(cr.rng)}
			if req.size > maxReqSize {
				req.size = maxReqSize
			}
			if cr.keys != nil {
				req.key = cr.keys.Next()
			}
			if cr.inWindow(at) {
				cr.ts.offered++
			}
			cr.backlog = append(cr.backlog, req)
			cr.ts.backlog++
			if b := uint64(cr.ts.backlog); b > cr.ts.backlogPeak {
				cr.ts.backlogPeak = b
			}
		}

		// Collect responses; the state machine under Poll also advances
		// ScaleRPC's IDLE/WARMUP/PROCESS cycle.
		cr.c.Conn.Poll(t, collect)

		// Push the backlog; TrySend refuses when the window is full or the
		// transport is mid-context-switch, and the queueing delay keeps
		// accruing against the intended arrival time.
		for len(cr.queued()) > 0 {
			req := cr.queued()[0]
			if !cr.c.Conn.TrySend(t, r.w.Handler, cr.buildPayload(req), cr.seq) {
				break
			}
			cr.pending[cr.seq] = req
			cr.seq++
			cr.pop()
			cr.ts.backlog--
			if cr.inWindow(req.intended) {
				cr.ts.qdelay.Record(int64(t.P.Now() - req.intended))
			}
		}

		// Exit when arrivals are done and either everything drained or the
		// drain deadline passed; whatever measured work remains unanswered
		// is abandoned (and fails any completion-floor SLO).
		if now >= r.horizon {
			drained := len(cr.queued()) == 0 && len(cr.pending) == 0
			if drained || now >= r.endAt {
				for _, req := range cr.queued() {
					if cr.inWindow(req.intended) {
						cr.ts.abandoned++
					}
				}
				cr.ts.backlog -= float64(len(cr.queued()))
				for _, req := range cr.pending {
					if cr.inWindow(req.intended) {
						cr.ts.abandoned++
					}
				}
				break
			}
		}

		// Sleep until the next intended arrival, the drain deadline, or
		// transport activity — whichever is first.
		wake := r.endAt
		if next := cr.arr.peek(); next < r.horizon && next < wake {
			wake = next
		}
		d := wake - now
		if len(cr.queued()) > 0 || len(cr.pending) > 0 {
			// Work in flight: poll at least every PollInterval even if the
			// signal stays quiet (e.g. completions recorded before we
			// registered interest).
			if d > r.w.PollInterval {
				d = r.w.PollInterval
			}
		}
		if d <= 0 {
			d = 1
		}
		// WaitSignal absorbs the poll scan's deferred core charge into the
		// park — one scheduler wake-up per idle cycle instead of two.
		t.WaitSignal(cr.c.Sig, d)
	}
	// Settle any residue from the final poll so the client exits with its
	// core time fully charged.
	t.FlushWork()
	r.running--
	if r.running == 0 {
		r.Done.Broadcast()
	}
}

// buildPayload fills the client's scratch buffer for one request: the key
// in the first 8 bytes (when key sampling is on), the rest zero.
func (cr *clientRun) buildPayload(req pendingReq) []byte {
	size := req.size
	if size < 8 {
		size = 8
	}
	p := cr.payload[:size]
	binary.LittleEndian.PutUint64(p, req.key)
	return p
}

// Report assembles the run's outcome. Call after the simulation has run to
// the drain deadline (all client procs exited).
func (r *Runner) Report() *Report {
	rep := &Report{
		Name:        r.w.Name,
		OfferedRate: r.w.OfferedRate,
		DurationNs:  int64(r.w.Duration),
		Pass:        true,
	}
	for _, ts := range r.tenants {
		tr := TenantReport{
			Name:         ts.spec.Name,
			Share:        ts.share,
			Clients:      ts.clients,
			Offered:      ts.offered,
			Completed:    ts.completed,
			Abandoned:    ts.abandoned,
			Errors:       ts.errors,
			Timeouts:     ts.timeouts,
			AchievedMops: mops(ts.completed, r.w.Duration),
			MeanUs:       ts.lat.Mean() / 1e3,
			P50Us:        float64(ts.lat.Quantile(0.5)) / 1e3,
			P99Us:        float64(ts.lat.Quantile(0.99)) / 1e3,
			P999Us:       float64(ts.lat.Quantile(0.999)) / 1e3,
			MaxUs:        float64(ts.lat.Max()) / 1e3,
			QueueP99Us:   float64(ts.qdelay.Quantile(0.99)) / 1e3,
			BacklogPeak:  ts.backlogPeak,
			SLO:          ts.spec.SLO,
		}
		tr.LatHist = histBuckets(ts.lat)
		tr.SLOPass, tr.SLOFails = ts.spec.SLO.Evaluate(ts.lat, ts.offered, ts.completed)
		if !tr.SLOPass {
			rep.Pass = false
		}
		rep.Offered += ts.offered
		rep.Completed += ts.completed
		rep.Abandoned += ts.abandoned
		rep.Errors += ts.errors
		rep.Timeouts += ts.timeouts
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.OfferedMops = mops(rep.Offered, r.w.Duration)
	rep.AchievedMops = mops(rep.Completed, r.w.Duration)
	return rep
}

// histBuckets flattens a histogram's bit-length buckets into bit-label →
// count, with zero-padded labels so JSON key order equals bucket order.
func histBuckets(h *stats.Histogram) map[string]uint64 {
	if h.Count() == 0 {
		return nil
	}
	out := make(map[string]uint64)
	for bit, n := range h.BitLenBuckets() {
		if n > 0 {
			out[fmt.Sprintf("bit%02d", bit)] = n
		}
	}
	return out
}

// mops converts a count over a window into millions per second.
func mops(n uint64, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(n) / (float64(window) / 1e9) / 1e6
}
