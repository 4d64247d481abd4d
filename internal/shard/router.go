package shard

import (
	"encoding/binary"
	"sort"

	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// RouterConfig shapes a client-side router.
type RouterConfig struct {
	// Opts reuses the exactly-once caller's knobs: Timeout is the
	// per-attempt deadline, MaxRetries the extra attempts (each retargeted
	// against the then-current map), RetryInterval the backoff after a
	// node answered RRetry.
	Opts rpccore.CallOpts
	// MaxRedirects caps wrong-shard/stale bounces per call before the
	// router fails it back to the application.
	MaxRedirects int
	// Coalesce piggybacks identical in-flight hot-key reads on one wire
	// request (KV endpoints only).
	Coalesce bool
	// CoalesceWindow bounds how old a leader may be before a duplicate read
	// stops joining it and goes to the wire itself: joining an attempt that
	// is already stalled (scheduler rotation, lost frame) would chain the
	// follower to the leader's retry latency. Defaults to 30µs.
	CoalesceWindow sim.Duration
	// Window is each endpoint's outstanding-call cap.
	Window int
}

// DefaultRouterConfig returns deadlines wide enough for loaded ScaleRPC
// rotations while still riding through a failover within a few attempts.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		Opts: rpccore.CallOpts{
			Timeout:       2 * sim.Millisecond,
			RetryInterval: 30 * sim.Microsecond,
			MaxRetries:    6,
		},
		MaxRedirects: 5,
		Window:       64,
	}
}

// rcall is one routed call. Finished rcalls return to the router's free
// list with their body, resp, wireIDs and waiters backing arrays, so a
// steady-state call allocates nothing. An rcall is recycled when both of
// its holders have let go: the sweep order (inOrder, dropped at compaction)
// and the owning endpoint's delivery (delivered, set once the Poll callback
// has returned). resp is therefore valid only during that callback — the
// rpccore.Response.Payload contract — and is owned by this rcall alone: a
// coalesced follower gets a copy of its leader's payload, never an alias,
// so a leader may be recycled before its followers are delivered.
type rcall struct {
	ep      *endpoint
	origID  uint64
	part    int
	inner   uint8
	body    []byte
	target  int
	epoch   uint32
	wireIDs []uint64
	posted  bool

	attempts  int
	redirects int
	deadline  sim.Time
	postedAt  sim.Time

	done     bool
	resp     []byte
	errResp  bool
	timedOut bool

	inOrder   bool
	delivered bool

	coKey   coKey
	leader  bool
	waiters []*rcall
}

type coKey struct {
	part int
	key  string
}

// Router multiplexes routed calls from any number of endpoints (fixed-
// partition connections for 2PC coordinators, per-key KV connections for
// load generators) over one wire connection per shard host. Every request
// is stamped with the router's map epoch; stale and wrong-shard feedback
// re-route in place, timeouts refetch the map and retarget, so a call
// started before a failover completes against the promoted primary.
type Router struct {
	cfg   RouterConfig
	h     *host.Host
	cur   *Map
	conns map[int]rpccore.Conn
	hosts []int
	sig   *sim.Signal
	stats *Stats

	// fetch pulls a fresh map from the director; nil pins the bootstrap
	// map (static deployments and unit tests).
	fetch func(t *host.Thread) *Map

	nextWire  uint64
	wires     map[uint64]*rcall
	order     []*rcall
	coal      map[coKey]*rcall
	lastFetch sim.Time
	fetched   bool

	// locked serializes wire-conn access. The scalerpc conn yields inside
	// its send and poll paths (simulated memory charges), so two client
	// threads interleaving mid-send would claim the same staging slot and
	// one frame would silently overwrite the other.
	locked bool

	// Poll-pass state. The wire lock admits one thread into pollAll, so the
	// thread can be stashed here for the duration of the pass and the wire
	// callback bound once (onWireFn) instead of closing over it per conn
	// per pass.
	pollT    *host.Thread
	onWireFn func(rpccore.Response)

	// free recycles finished rcalls (at most Window of them); envBuf is
	// post's envelope scratch, used under the wire lock only.
	free   []*rcall
	envBuf []byte
}

// NewRouter builds a router over per-host wire connections (each created
// with sig so arrivals wake blocked callers). m is the bootstrap map.
func NewRouter(h *host.Host, m *Map, conns map[int]rpccore.Conn, sig *sim.Signal, cfg RouterConfig, fetch func(t *host.Thread) *Map) *Router {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	r := &Router{
		cfg:   cfg,
		h:     h,
		cur:   m.Clone(),
		conns: conns,
		sig:   sig,
		stats: SharedStats(h.Tel.Registry()),
		fetch: fetch,
		wires: make(map[uint64]*rcall),
		coal:  make(map[coKey]*rcall),
	}
	for hid := range conns {
		r.hosts = append(r.hosts, hid)
	}
	sort.Ints(r.hosts)
	r.onWireFn = func(resp rpccore.Response) { r.onWire(r.pollT, resp) }
	return r
}

// Map returns the router's current view of the placement.
func (r *Router) Map() *Map { return r.cur }

// Host returns the client host the router runs on.
func (r *Router) Host() *host.Host { return r.h }

// Signal returns the activity signal shared with the wire connections.
func (r *Router) Signal() *sim.Signal { return r.sig }

// Epoch returns the epoch the router is stamping requests with.
func (r *Router) Epoch() uint32 { return r.cur.Epoch }

// PartConn returns an rpccore.Conn bound to one partition: handler ids
// pass through as the inner op (this is what a routed ScaleTX coordinator
// drives).
func (r *Router) PartConn(part int) rpccore.Conn {
	return &endpoint{r: r, part: part}
}

// KVConn returns an rpccore.Conn that routes per key: the first 8 payload
// bytes are the key (the loadgen convention), the rest is the put value.
// client namespaces put tokens.
func (r *Router) KVConn(client uint16) rpccore.Conn {
	return &endpoint{r: r, part: -1, client: client}
}

// acquire takes the wire lock; release drops it (and the poll pass's stashed
// thread, if pollAll held it) and wakes waiting threads.
func (r *Router) acquire(t *host.Thread) {
	for r.locked {
		t.WaitSignal(r.sig, 5*sim.Microsecond)
	}
	r.locked = true
}

func (r *Router) release() {
	r.pollT = nil
	r.locked = false
	r.sig.Broadcast()
}

// submit accepts one call from an endpoint. body is copied.
func (r *Router) submit(t *host.Thread, ep *endpoint, part int, inner uint8, body []byte, origID uint64) bool {
	if ep.out >= r.cfg.Window {
		return false
	}
	rc := r.newCall()
	rc.ep, rc.origID, rc.part, rc.inner = ep, origID, part, inner
	rc.body = append(rc.body, body...)
	if r.cfg.Coalesce && inner == HKVGet && ep.part < 0 {
		window := r.cfg.CoalesceWindow
		if window <= 0 {
			window = 30 * sim.Microsecond
		}
		ck := coKey{part, string(body)}
		if leader := r.coal[ck]; leader != nil && !leader.done &&
			leader.attempts == 0 && t.P.Now()-leader.postedAt <= window {
			leader.waiters = append(leader.waiters, rc)
			r.stats.Coalesced++
			ep.out++
			return true
		}
		rc.coKey, rc.leader = ck, true
		r.coal[ck] = rc
	}
	rc.postedAt = t.P.Now()
	r.stats.Routed++
	ep.out++
	r.acquire(t)
	rc.target = r.targetFor(part, inner)
	rc.epoch = r.cur.Epoch
	rc.deadline = t.P.Now() + r.cfg.Opts.Timeout
	rc.inOrder = true
	r.order = append(r.order, rc)
	r.post(t, rc)
	r.release()
	return true
}

// newCall takes a zeroed rcall from the free list, keeping its buffers.
func (r *Router) newCall() *rcall {
	n := len(r.free)
	if n == 0 {
		return &rcall{}
	}
	rc := r.free[n-1]
	r.free[n-1] = nil
	r.free = r.free[:n-1]
	return rc
}

// recycle returns rc to the free list once neither the sweep order nor a
// pending delivery refers to it.
func (r *Router) recycle(rc *rcall) {
	if rc.inOrder || !rc.delivered || len(r.free) >= r.cfg.Window {
		return
	}
	*rc = rcall{body: rc.body[:0], resp: rc.resp[:0], wireIDs: rc.wireIDs[:0], waiters: rc.waiters[:0]}
	r.free = append(r.free, rc)
}

// scratch returns buf with length n, reallocating only to grow.
func scratch(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// post stamps and sends rc's current attempt; a full wire window leaves it
// queued for the sweep.
func (r *Router) post(t *host.Thread, rc *rcall) {
	conn := r.conns[rc.target]
	if conn == nil {
		rc.posted = false
		return
	}
	r.envBuf = scratch(r.envBuf, envSize+len(rc.body))
	buf := r.envBuf
	n := EncodeEnv(buf, rc.epoch, rc.part, rc.inner, rc.body)
	r.nextWire++
	wireID := r.nextWire
	if conn.TrySend(t, HShard, buf[:n], wireID) {
		r.wires[wireID] = rc
		rc.wireIDs = append(rc.wireIDs, wireID)
		rc.posted = true
	} else {
		rc.posted = false
	}
}

// pollAll drains every wire connection and sweeps deadlines. Called from
// every endpoint Poll (the calling thread is the client thread, so
// blocking map refetches are safe here). The wire lock covers the whole
// pass: conn polls yield mid-scan, and an interleaved poster or a second
// poller would race the conn's slot bookkeeping.
func (r *Router) pollAll(t *host.Thread) {
	r.acquire(t)
	r.pollT = t
	defer r.release()
	for _, hid := range r.hosts {
		r.conns[hid].Poll(t, r.onWireFn)
	}

	now := t.P.Now()
	for i := 0; i < len(r.order); i++ {
		rc := r.order[i]
		if rc.done {
			continue
		}
		if !rc.posted {
			r.post(t, rc)
		}
		if now < rc.deadline {
			continue
		}
		rc.attempts++
		if rc.attempts > r.cfg.Opts.MaxRetries {
			r.stats.Timeouts++
			r.fail(rc)
			continue
		}
		// The attempt expired: the primary may be gone. Refresh the map
		// and retarget against the current owner.
		r.refetch(t)
		r.retarget(t, rc)
	}
	if len(r.order) > 2*(len(r.wires)+1) {
		keep := r.order[:0]
		for _, rc := range r.order {
			if !rc.done {
				keep = append(keep, rc)
				continue
			}
			rc.inOrder = false
			r.recycle(rc)
		}
		// Clear the vacated tail: it would otherwise keep finished rcalls
		// reachable (and, now, alias recycled ones) past len.
		for i := len(keep); i < len(r.order); i++ {
			r.order[i] = nil
		}
		r.order = keep
	}
}

// onWire handles one wire response.
func (r *Router) onWire(t *host.Thread, resp rpccore.Response) {
	rc := r.wires[resp.ReqID]
	if rc == nil || rc.done {
		return // late response for a completed or superseded attempt
	}
	if resp.Err || resp.TimedOut || len(resp.Payload) < 1 {
		// Transport-level failure: force a retry at the sweep.
		rc.deadline = t.P.Now()
		return
	}
	switch resp.Payload[0] {
	case ROK:
		r.complete(rc, resp.Payload[1:], false, false)
	case RStale:
		rc.redirects++
		if rc.redirects > r.cfg.MaxRedirects {
			r.fail(rc)
			return
		}
		r.refetch(t)
		r.retarget(t, rc)
	case RWrongShard:
		rc.redirects++
		r.stats.Redirects++
		if rc.redirects > r.cfg.MaxRedirects || len(resp.Payload) < 7 {
			r.fail(rc)
			return
		}
		// Follow the responder's hint: its epoch and the owner it names.
		rc.epoch = binary.LittleEndian.Uint32(resp.Payload[1:])
		rc.target = int(binary.LittleEndian.Uint16(resp.Payload[5:]))
		rc.deadline = t.P.Now() + r.cfg.Opts.Timeout
		r.post(t, rc)
	case RRetry:
		backoff := r.cfg.Opts.RetryInterval
		if backoff <= 0 {
			backoff = 20 * sim.Microsecond
		}
		rc.deadline = t.P.Now() + backoff
	default:
		r.fail(rc)
	}
}

// retarget re-stamps rc against the current map and re-sends.
func (r *Router) retarget(t *host.Thread, rc *rcall) {
	rc.target = r.targetFor(rc.part, rc.inner)
	rc.epoch = r.cur.Epoch
	rc.deadline = t.P.Now() + r.cfg.Opts.Timeout
	r.post(t, rc)
}

// targetFor picks a call's destination: the partition's primary, except
// reads of a degraded primary, which steer to the backup — synchronous
// replication keeps it current for every acked write, so a gray primary
// (straggling CPU, lossy link) stops sitting on the read path while it
// still absorbs writes. Writes always go to the primary: the replication
// topology is unchanged by a demotion.
func (r *Router) targetFor(part int, inner uint8) int {
	p := r.cur.Primary[part]
	if inner != HKVGet || !r.cur.IsDegraded(p) {
		return p
	}
	b := r.cur.Backup[part]
	if b == NoHost || b == p || r.cur.IsDegraded(b) || r.conns[b] == nil {
		return p
	}
	r.stats.SteeredReads++
	return b
}

// refetch pulls a fresh map from the director, rate-limited so a burst of
// expiries costs one control-plane dial.
func (r *Router) refetch(t *host.Thread) {
	if r.fetch == nil {
		return
	}
	now := t.P.Now()
	if r.fetched && now-r.lastFetch < 20*sim.Microsecond {
		return
	}
	r.lastFetch, r.fetched = now, true
	if m := r.fetch(t); m != nil && m.Epoch > r.cur.Epoch {
		r.cur = m
	}
	r.stats.MapFetches++
}

func (r *Router) fail(rc *rcall) {
	r.complete(rc, nil, true, true)
}

// complete finishes rc (and any coalesced followers) and queues delivery
// on the owning endpoints.
func (r *Router) complete(rc *rcall, payload []byte, errResp, timedOut bool) {
	rc.done = true
	rc.resp = append(rc.resp[:0], payload...)
	rc.errResp, rc.timedOut = errResp, timedOut
	for _, id := range rc.wireIDs {
		delete(r.wires, id)
	}
	if rc.leader && r.coal[rc.coKey] == rc {
		delete(r.coal, rc.coKey)
	}
	rc.ep.ready = append(rc.ep.ready, rc)
	for i, w := range rc.waiters {
		w.done = true
		w.resp = append(w.resp[:0], rc.resp...)
		w.errResp, w.timedOut = errResp, timedOut
		w.ep.ready = append(w.ep.ready, w)
		rc.waiters[i] = nil
	}
	rc.waiters = rc.waiters[:0]
}

// endpoint is one rpccore.Conn face of the router.
type endpoint struct {
	r      *Router
	part   int // fixed partition, or -1 for per-key KV routing
	client uint16
	out    int
	ready  []*rcall
	putBuf []byte // KV put encoding scratch; submit copies out of it
}

// TrySend accepts one call. In KV mode the handler must be HKVGet/HKVPut
// and the payload starts with the 8-byte key.
func (e *endpoint) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	part, body := e.part, payload
	if e.part < 0 {
		if len(payload) < 8 {
			return false
		}
		key := payload[:8]
		part = e.r.cur.PartitionOf(key)
		switch handler {
		case HKVPut:
			token := uint64(e.client)<<32 | (reqID & 0xffffffff)
			e.putBuf = scratch(e.putBuf, 9+len(payload))
			body = e.putBuf[:EncodeKVPut(e.putBuf, token, key, payload[8:])]
		default:
			handler = HKVGet
			body = key
		}
	}
	return e.r.submit(t, e, part, handler, body, reqID)
}

// Poll advances the router and delivers this endpoint's completions.
func (e *endpoint) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	e.r.pollAll(t)
	// Drain by index and reset to the slice head, so the backing array is
	// reused and no delivered rcall stays reachable through it. len is read
	// each turn: a callback that yields lets another thread's pollAll
	// complete more of this endpoint's calls under the loop.
	n := 0
	for ; n < len(e.ready); n++ {
		rc := e.ready[n]
		e.ready[n] = nil
		e.out--
		fn(rpccore.Response{ReqID: rc.origID, Payload: rc.resp, Err: rc.errResp, TimedOut: rc.timedOut})
		rc.delivered = true
		e.r.recycle(rc)
	}
	e.ready = e.ready[:0]
	return n
}

func (e *endpoint) Outstanding() int { return e.out }
func (e *endpoint) SlotCount() int   { return e.r.cfg.Window }

var _ rpccore.Conn = (*endpoint)(nil)

// KVClient is a blocking convenience wrapper over a KV endpoint for
// examples and harnesses: sequential Get/Put with explicit tokens.
type KVClient struct {
	r      *Router
	ep     *endpoint
	client uint16
	nextID uint64
}

// KVClient builds a blocking client in token namespace client.
func (r *Router) KVClient(client uint16) *KVClient {
	return &KVClient{r: r, ep: &endpoint{r: r, part: -1, client: client}, client: client}
}

// Token returns the token the n-th Put (1-based reqID) uses.
func Token(client uint16, reqID uint64) uint64 {
	return uint64(client)<<32 | (reqID & 0xffffffff)
}

func (c *KVClient) do(t *host.Thread, handler uint8, payload []byte) ([]byte, bool) {
	c.nextID++
	id := c.nextID
	for !c.ep.TrySend(t, handler, payload, id) {
		c.ep.Poll(t, func(rpccore.Response) {})
		t.WaitSignal(c.r.sig, 5*sim.Microsecond)
	}
	var out []byte
	ok, got := false, false
	for !got {
		c.ep.Poll(t, func(resp rpccore.Response) {
			if resp.ReqID != id || got {
				return
			}
			got = true
			ok = !resp.Err
			out = append([]byte(nil), resp.Payload...)
		})
		if !got {
			t.WaitSignal(c.r.sig, 5*sim.Microsecond)
		}
	}
	return out, ok
}

// Get reads key (8 bytes). found reports presence; ok reports the call
// completed (vs. exhausting the retry budget).
func (c *KVClient) Get(t *host.Thread, key []byte) (value []byte, found, ok bool) {
	resp, ok := c.do(t, HKVGet, key)
	if !ok || len(resp) < 1 || resp[0] == 0 {
		return nil, false, ok
	}
	return resp[1:], true, true
}

// Put writes key (8 bytes) → value, returning the token the write was
// stamped with and whether it was acked.
func (c *KVClient) Put(t *host.Thread, key, value []byte) (token uint64, ok bool) {
	payload := make([]byte, 8+len(value))
	copy(payload, key)
	copy(payload[8:], value)
	token = Token(c.client, c.nextID+1)
	_, ok = c.do(t, HKVPut, payload)
	return token, ok
}
