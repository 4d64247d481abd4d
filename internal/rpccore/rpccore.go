// Package rpccore defines the interfaces every RPC implementation in this
// repository (ScaleRPC and the RawWrite/HERD/FaSST baselines) satisfies,
// plus the client-side coroutine driver the benchmarks use, mirroring the
// paper's methodology (§3.6.1): client threads schedule coroutines round
// robin; each coroutine posts a batch of asynchronous requests, yields,
// and collects its responses before posting the next batch.
package rpccore

import (
	"scalerpc/internal/host"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// Handler processes one request on a server worker thread. It writes the
// response into out and returns its length. The handler charges its own
// compute via t.Work.
type Handler func(t *host.Thread, clientID uint16, req []byte, out []byte) int

// Server is the service side of an RPC transport.
type Server interface {
	// Register installs a handler under an id. Must be called before Start.
	Register(handler uint8, fn Handler)
	// Start launches the server's worker threads.
	Start()
}

// Response is a completed call delivered to the client.
type Response struct {
	ReqID   uint64
	Payload []byte // valid only during the delivery callback
	Err     bool
	// TimedOut marks a synthetic failure a Caller delivers when the call
	// exhausted its deadline and retry budget; no server response arrived
	// (one may still trickle in later and be counted as a late drop).
	TimedOut bool
}

// Conn is a client endpoint (the paper's RPCClient): one logical caller
// with a bounded window of outstanding requests.
type Conn interface {
	// TrySend posts one asynchronous request if the connection can accept
	// it right now (free slot, and — for ScaleRPC — a state that permits
	// sending). It returns false otherwise.
	TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool
	// Poll drains arrived responses, invoking fn for each, and returns the
	// number delivered. It also advances the connection's state machine.
	Poll(t *host.Thread, fn func(Response)) int
	// Outstanding returns the number of in-flight requests.
	Outstanding() int
	// SlotCount returns the maximum request window.
	SlotCount() int
}

// ActivitySignal is shared by all connections owned by one client thread;
// transports broadcast it whenever something arrives so the thread can
// sleep instead of spin.
type ActivitySignal = sim.Signal

// DriverConfig shapes a benchmark client thread.
type DriverConfig struct {
	// Batch is the number of requests each coroutine keeps outstanding
	// (posted together, collected together — the paper's batch size).
	Batch int
	// Handler is the RPC handler id to invoke.
	Handler uint8
	// PayloadSize is the request size in bytes.
	PayloadSize int
	// PayloadFn, when set, generates the payload for each call (overrides
	// PayloadSize).
	PayloadFn func(rng *stats.RNG, buf []byte) int
	// ThinkTime, when set, returns an injected idle delay before a
	// coroutine posts its next batch (used for the non-uniform workloads
	// of Figure 12).
	ThinkTime func(rng *stats.RNG) sim.Duration
	// WarmupOps are completed before measurement starts.
	WarmupOps int
	// Seed drives the payload and think-time generators.
	Seed uint64
	// IdlePoll bounds how long the thread sleeps when nothing is ready.
	IdlePoll sim.Duration
	// BusyPoll makes the thread spin (holding a core, charging SpinCost
	// per idle pass) instead of blocking — how the paper's clients
	// actually behave, and the reason UD RPC clients bottleneck on CPU
	// (§3.6.2). Enable when modelling core contention; leave off for
	// cheap functional tests.
	BusyPoll bool
	// SpinCost is the CPU charge per empty busy-poll pass.
	SpinCost sim.Duration
	// MeasureFrom, when nonzero, excludes completions and latencies
	// recorded before that virtual time (time-based warmup).
	MeasureFrom sim.Time
	// StartDelay staggers the thread's first post, breaking the phase
	// lock that forms when every client starts at the same instant.
	StartDelay sim.Duration
}

// DriverStats aggregates one client thread's measurements.
type DriverStats struct {
	Completed uint64
	Bytes     uint64
	BatchLat  *stats.Histogram // per-batch latency, as the paper measures
}

// coState tracks one coroutine inside the driver.
type coState struct {
	conn       Conn
	inFlight   int
	batchStart sim.Time
	warmupLeft int
	nextReqID  uint64
	thinkUntil sim.Time

	// The response callback is bound once per coroutine (onResp = collect)
	// rather than built per Poll; it reaches the driver's thread, config
	// and totals through these.
	t      *host.Thread
	cfg    *DriverConfig
	res    *DriverStats
	onResp func(Response)
}

// collect accounts one delivered response.
func (co *coState) collect(r Response) {
	co.inFlight--
	if co.warmupLeft > 0 {
		co.warmupLeft--
		return
	}
	if co.t.P.Now() < co.cfg.MeasureFrom {
		return
	}
	co.res.Completed++
	co.res.Bytes += uint64(len(r.Payload))
}

// RunDriver runs the benchmark loop over the given connections (coroutines)
// on the calling thread until stop returns true. Measurement excludes each
// coroutine's warmup operations.
func RunDriver(t *host.Thread, conns []Conn, cfg DriverConfig, sig *sim.Signal, stop func() bool) DriverStats {
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.IdlePoll <= 0 {
		cfg.IdlePoll = 5 * sim.Microsecond
	}
	res := DriverStats{BatchLat: stats.NewHistogram()}
	if cfg.StartDelay > 0 {
		t.P.Sleep(cfg.StartDelay)
	}
	rng := stats.NewRNG(cfg.Seed)
	cos := make([]*coState, len(conns))
	payload := make([]byte, 4096)
	for i, c := range conns {
		co := &coState{conn: c, warmupLeft: cfg.WarmupOps, t: t, cfg: &cfg, res: &res}
		co.onResp = co.collect
		cos[i] = co
	}
	makePayload := func() []byte {
		n := cfg.PayloadSize
		if cfg.PayloadFn != nil {
			n = cfg.PayloadFn(rng, payload)
		}
		return payload[:n]
	}

	for !stop() {
		progress := false
		for _, co := range cos {
			// Collect responses.
			if co.conn.Poll(t, co.onResp) > 0 {
				progress = true
			}
			// A batch completes when everything posted has returned.
			if co.inFlight == 0 && co.batchStart != 0 {
				if co.warmupLeft == 0 && t.P.Now() >= cfg.MeasureFrom && co.batchStart >= cfg.MeasureFrom {
					res.BatchLat.Record(int64(t.P.Now() - co.batchStart))
				}
				co.batchStart = 0
				if cfg.ThinkTime != nil {
					co.thinkUntil = t.P.Now() + cfg.ThinkTime(rng)
				}
			}
			// Post the next batch.
			if co.inFlight == 0 && co.batchStart == 0 && t.P.Now() >= co.thinkUntil {
				posted := 0
				for posted < cfg.Batch {
					if !co.conn.TrySend(t, cfg.Handler, makePayload(), co.nextReqID) {
						break
					}
					co.nextReqID++
					co.inFlight++
					posted++
				}
				if posted > 0 {
					co.batchStart = t.P.Now()
					progress = true
				}
			}
		}
		if !progress {
			if cfg.BusyPoll {
				spin := cfg.SpinCost
				if spin <= 0 {
					spin = 100
				}
				t.Work(spin)
			} else {
				t.WaitSignal(sig, cfg.IdlePoll)
			}
		}
	}
	return res
}
