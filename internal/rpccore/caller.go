package rpccore

import (
	"scalerpc/internal/host"
	"scalerpc/internal/recycle"
	"scalerpc/internal/sim"
)

// CallOpts are per-connection deadline and retry knobs, all in virtual
// time. The zero value disables everything (calls wait forever, as before).
type CallOpts struct {
	// Timeout is the per-call deadline, measured from the first send. When
	// it expires the Caller fails the call back to the application with
	// Response.TimedOut set, regardless of retries still in flight.
	Timeout sim.Duration `json:"timeout_ns,omitempty"`
	// RetryInterval is the delay before the first re-send; it doubles
	// after every retry (bounded exponential backoff).
	RetryInterval sim.Duration `json:"retry_interval_ns,omitempty"`
	// MaxRetries bounds re-sends per call. 0 means no retries: the call
	// either completes or times out on its original send.
	MaxRetries int `json:"max_retries,omitempty"`
	// Hedge, when > 0, issues one speculative duplicate send if no
	// response arrived this long after the first send — ahead of the
	// retry schedule, against the straggler tail. Server-side dedup makes
	// the duplicate safe.
	Hedge sim.Duration `json:"hedge_ns,omitempty"`
	// MaxRetryInterval caps the doubling backoff; 0 leaves it unbounded
	// (the pre-cap behavior).
	MaxRetryInterval sim.Duration `json:"max_retry_interval_ns,omitempty"`
	// RetryJitter spreads each backoff delay by up to this fraction of the
	// interval (e.g. 0.5 draws from [interval, 1.5*interval)), breaking up
	// the synchronized retry waves a recovered link otherwise sees from
	// every client at once. The draw is a stateless hash of
	// (JitterSalt, reqID, attempt), so runs stay deterministic and two
	// callers with different salts never stampede in phase.
	RetryJitter float64 `json:"retry_jitter,omitempty"`
	// JitterSalt seeds the jitter hash; give each client a distinct salt.
	JitterSalt uint64 `json:"jitter_salt,omitempty"`
}

// jitterHash mixes (salt, reqID, attempt) into a uniform [0,1) fraction —
// splitmix64-style finalization, stateless so the retry schedule is a pure
// function of the call identity.
func jitterHash(salt, reqID uint64, attempt int) float64 {
	z := salt ^ reqID*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// nextInterval applies the cap and jitter to a call's current backoff.
func (o CallOpts) nextInterval(interval sim.Duration, reqID uint64, attempt int) sim.Duration {
	if o.MaxRetryInterval > 0 && interval > o.MaxRetryInterval {
		interval = o.MaxRetryInterval
	}
	if o.RetryJitter > 0 {
		interval += sim.Duration(float64(interval) * o.RetryJitter * jitterHash(o.JitterSalt, reqID, attempt))
	}
	return interval
}

// Resender is implemented by transports whose in-flight requests can be
// re-issued in place: Resend re-posts the request occupying the slot that
// reqID holds, without consuming a new slot. Retries and hedges prefer it;
// on a transport without it the Caller can only enforce deadlines.
type Resender interface {
	Resend(t *host.Thread, reqID uint64) bool
}

// Canceler is implemented by transports that can withdraw an in-flight
// request. The Caller invokes it when a call's deadline expires: the
// application has been told TimedOut and moved on, so the request must
// not linger in the transport's retry surface — a frame that keeps being
// re-offered (e.g. restaged across context switches) can outlive the
// server's bounded dedup window and re-execute long after the app gave
// up, breaking at-most-once.
type Canceler interface {
	Cancel(t *host.Thread, reqID uint64) bool
}

// pendingCall tracks one outstanding request's timers.
type pendingCall struct {
	reqID     uint64
	deadline  sim.Time
	nextRetry sim.Time
	interval  sim.Duration
	retries   int
	hedgeAt   sim.Time
	hedged    bool
	done      bool
}

// poison overwrites a released call with the poison pattern.
func (pc *pendingCall) poison() {
	w := poisonInt()
	*pc = pendingCall{reqID: recycle.Word, deadline: sim.Time(w), nextRetry: sim.Time(w),
		interval: sim.Duration(w), retries: w, hedgeAt: sim.Time(w), done: true}
}

// poisonInt is recycle.Word as a (negative) int.
func poisonInt() int {
	w := recycle.Word
	return int(w)
}

// Caller wraps a Conn with per-call deadlines, retry/backoff and hedging.
// It implements Conn itself, so drivers and the loadgen runner can slot it
// in transparently: Poll delivers normal responses for calls still
// pending, synthesizes TimedOut failures for expired ones, and silently
// drops responses for calls already completed or failed (retry races).
//
// Several threads may share one Caller (a shard node's handler threads
// share its replication links), and the timer sweep yields inside Cancel
// and Resend, so a sweep can be suspended holding a pendingCall while
// another thread sends and polls. pendingCalls are therefore recycled only
// at order compaction, and compaction runs only while no sweep is in
// flight: a call a sweep read before a yield is still that call after it.
type Caller struct {
	Conn Conn
	Opts CallOpts
	Rel  *RelStats

	pending map[uint64]*pendingCall
	// order preserves insertion order for the timer sweep — iterating the
	// map would break run determinism.
	order []*pendingCall
	// sweeping counts timer sweeps in flight (suspended in a yield or
	// running); compaction waits for zero.
	sweeping int

	calls  recycle.List[pendingCall]
	frames recycle.List[pollFrame]
}

// pollFrame is one Poll's delivery state. Its deliver method value is
// bound once, when the frame is made, so a poll builds no closure; each
// concurrent Poll takes its own frame.
type pollFrame struct {
	c         *Caller
	fn        func(Response)
	delivered int
	onResp    func(Response)
}

// deliver hands one response from the wrapped Conn to the pending call it
// answers, or counts it as a late drop.
func (f *pollFrame) deliver(r Response) {
	c := f.c
	pc, ok := c.pending[r.ReqID]
	if !ok || pc.done {
		// A late response: its call completed via an earlier copy or
		// already timed out.
		c.Rel.LateDrops++
		return
	}
	c.complete(pc)
	f.delivered++
	f.fn(r)
}

// NewCaller wraps conn. rel may be nil (detached counters).
func NewCaller(conn Conn, opts CallOpts, rel *RelStats) *Caller {
	if rel == nil {
		rel = &RelStats{}
	}
	return &Caller{Conn: conn, Opts: opts, Rel: rel, pending: make(map[uint64]*pendingCall)}
}

// TrySend posts the request through the wrapped Conn and, on success,
// starts the call's deadline and retry clocks.
func (c *Caller) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	if !c.Conn.TrySend(t, handler, payload, reqID) {
		return false
	}
	now := t.P.Now()
	pc := c.calls.Get()
	*pc = pendingCall{reqID: reqID, interval: c.Opts.RetryInterval}
	if c.Opts.Timeout > 0 {
		pc.deadline = now + c.Opts.Timeout
	}
	if c.Opts.Hedge > 0 {
		pc.hedgeAt = now + c.Opts.Hedge
	}
	if c.Opts.RetryInterval > 0 {
		pc.nextRetry = now + c.Opts.nextInterval(c.Opts.RetryInterval, reqID, 0)
	}
	if old, ok := c.pending[reqID]; ok {
		old.done = true // the application reused a reqID; supersede
	}
	c.pending[reqID] = pc
	c.order = append(c.order, pc)
	return true
}

// Poll drains the wrapped Conn, delivering responses for pending calls and
// counting the rest as late drops, then sweeps the timers: expired calls
// fail with TimedOut, due retries and hedges re-send in place.
func (c *Caller) Poll(t *host.Thread, fn func(Response)) int {
	f := c.frames.Get()
	if f.onResp == nil {
		f.c, f.onResp = c, f.deliver
	}
	f.fn, f.delivered = fn, 0
	c.Conn.Poll(t, f.onResp)
	delivered := f.delivered
	f.fn, f.delivered = nil, 0
	if recycle.Poison {
		f.delivered = poisonInt()
	}
	c.frames.Put(f)

	if c.sweeping == 0 && len(c.order) > 2*(len(c.pending)+1) {
		keep := c.order[:0]
		for _, pc := range c.order {
			if !pc.done {
				keep = append(keep, pc)
				continue
			}
			if recycle.Poison {
				pc.poison()
			}
			c.calls.Put(pc)
		}
		clear(c.order[len(keep):])
		c.order = keep
	}
	c.sweeping++
	defer func() { c.sweeping-- }() // also when a yield unwinds the thread
	now := t.P.Now()
	for i := 0; i < len(c.order); i++ {
		pc := c.order[i]
		if pc.done {
			continue
		}
		if c.Opts.Timeout > 0 && now >= pc.deadline {
			c.complete(pc)
			if cn, ok := c.Conn.(Canceler); ok {
				cn.Cancel(t, pc.reqID) // may yield: pc stays this call's (see Caller)
			}
			c.Rel.DeadlineExceeded++
			delivered++
			fn(Response{ReqID: pc.reqID, Err: true, TimedOut: true})
			continue
		}
		if c.Opts.Hedge > 0 && !pc.hedged && now >= pc.hedgeAt {
			pc.hedged = true
			if c.resend(t, pc.reqID) {
				c.Rel.Hedges++
			}
		}
		if c.Opts.RetryInterval > 0 && pc.retries < c.Opts.MaxRetries && now >= pc.nextRetry {
			if c.resend(t, pc.reqID) {
				pc.retries++
				c.Rel.Retries++
			}
			pc.interval *= 2
			pc.nextRetry = now + c.Opts.nextInterval(pc.interval, pc.reqID, pc.retries)
		}
	}
	return delivered
}

func (c *Caller) complete(pc *pendingCall) {
	pc.done = true
	delete(c.pending, pc.reqID)
}

func (c *Caller) resend(t *host.Thread, reqID uint64) bool {
	if rs, ok := c.Conn.(Resender); ok {
		return rs.Resend(t, reqID)
	}
	return false
}

// Outstanding forwards the wrapped Conn's slot usage. After a timeout this
// can exceed Pending: the slot stays occupied until a (late) response or a
// reconnect reclaims it.
func (c *Caller) Outstanding() int { return c.Conn.Outstanding() }

// SlotCount forwards the wrapped Conn's window size.
func (c *Caller) SlotCount() int { return c.Conn.SlotCount() }

var _ Conn = (*Caller)(nil)
