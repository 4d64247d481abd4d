package main

import (
	"encoding/binary"

	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// Every request the benchmark sends carries a tag the benchmark owns:
// payload bytes [8:16] = connection index << 32 | per-connection sequence.
// The reply must carry it back, which is how each reply is verified and how
// the traced run joins the client side of an op to its handler execution.
const (
	tagOff = 8
	tagEnd = 16
)

func putTag(p []byte, tag uint64) { binary.LittleEndian.PutUint64(p[tagOff:tagEnd], tag) }
func getTag(p []byte) uint64      { return binary.LittleEndian.Uint64(p[tagOff:tagEnd]) }

// book is one rep's op accounting, shared by every connection of the rep.
// The measurement window is [from, to) in virtual time.
type book struct {
	from, to sim.Time

	sent  uint64 // requests accepted by the transport inside the window
	done  uint64 // correct replies delivered inside the window
	bytes uint64 // request+reply payload bytes of those
	errs  uint64 // replies flagged Err/TimedOut (any time)
	wrong uint64 // replies with a wrong tag, word or length (any time)

	conns []*checkedConn
	// check verifies a reply against what was sent; set per workload. Nil
	// means the payloads belong to the program (smallbank_shard4): nothing
	// is stamped or verified, only counted.
	check func(p pending, reply []byte) bool

	tr *tracer // nil on untraced reps
}

func (b *book) inWindow(at sim.Time) bool { return at >= b.from && at < b.to }

// unanswered counts requests sent inside the window that no reply ever
// resolved — abandoned at the drain deadline.
func (b *book) unanswered() uint64 {
	var n uint64
	for _, c := range b.conns {
		for _, p := range c.pend {
			if b.inWindow(p.at) {
				n++
			}
		}
	}
	return n
}

// pending is what the benchmark remembers about one in-flight request.
type pending struct {
	tag    uint64
	word   uint64 // payload bytes [0:8] as sent
	reqLen int
	at     sim.Time // virtual time the transport accepted it
}

// checkedConn decorates an rpccore.Conn: it stamps the tag, remembers what
// was sent, verifies every reply, and — on the traced rep only — records
// the client-side span boundaries on both clocks. It charges no virtual
// time, so a rep behaves identically with and without it tracing.
type checkedConn struct {
	inner rpccore.Conn
	b     *book
	idx   uint32
	seq   uint32
	pend  map[uint64]pending

	// Poll is not re-entrant per connection, so the delivery callback is
	// bound once instead of allocating a closure per Poll.
	curT  *host.Thread
	curFn func(rpccore.Response)
	onFn  func(rpccore.Response)

	spans []opSpan // traced rep only, indexed by seq
}

func (b *book) wrap(inner rpccore.Conn) *checkedConn {
	c := &checkedConn{inner: inner, b: b, idx: uint32(len(b.conns)), pend: make(map[uint64]pending, inner.SlotCount())}
	c.onFn = c.onResponse
	b.conns = append(b.conns, c)
	return c
}

func (c *checkedConn) Outstanding() int { return c.inner.Outstanding() }
func (c *checkedConn) SlotCount() int   { return c.inner.SlotCount() }

func (c *checkedConn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	tag := uint64(c.idx)<<32 | uint64(c.seq)
	if c.b.check != nil {
		putTag(payload, tag)
	}
	tr := c.b.tr
	if tr != nil {
		// The span exists before the request can reach the handler.
		c.spans = append(c.spans, opSpan{Conn: c.idx, Seq: c.seq})
		tr.enter(regionTrySend)
	}
	ok := c.inner.TrySend(t, handler, payload, reqID)
	if tr != nil {
		tr.leave()
		if !ok {
			c.spans = c.spans[:c.seq]
		}
	}
	if !ok {
		return false
	}
	now := t.P.Now()
	c.pend[reqID] = pending{tag: tag, word: binary.LittleEndian.Uint64(payload), reqLen: len(payload), at: now}
	if tr != nil {
		sp := &c.spans[c.seq]
		sp.Sim[stAccept], sp.Host[stAccept] = int64(now), tr.hostNow()
	}
	c.seq++
	if c.b.inWindow(now) {
		c.b.sent++
	}
	return true
}

func (c *checkedConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	c.curT, c.curFn = t, fn
	tr := c.b.tr
	if tr != nil {
		tr.enter(regionPoll)
	}
	n := c.inner.Poll(t, c.onFn)
	if tr != nil {
		tr.leave()
	}
	return n
}

func (c *checkedConn) onResponse(r rpccore.Response) {
	b := c.b
	if p, ok := c.pend[r.ReqID]; ok {
		delete(c.pend, r.ReqID)
		now := c.curT.P.Now()
		switch {
		case r.Err:
			b.errs++
		case b.check != nil && !b.check(p, r.Payload):
			b.wrong++
		default:
			if b.inWindow(now) {
				b.done++
				b.bytes += uint64(p.reqLen + len(r.Payload))
			}
			if b.tr != nil {
				sp := &c.spans[uint32(p.tag)]
				sp.Sim[stDeliver] = int64(now)
				sp.Host[stDeliver] = b.tr.hostNow()
			}
		}
	}
	if b.tr != nil {
		b.tr.enter(regionDeliver)
		c.curFn(r)
		b.tr.enter(regionPoll)
		return
	}
	c.curFn(r)
}

// wrapHandler decorates a benchmark-owned handler so the traced rep sees
// handler entry and exit of each op.
func (b *book) wrapHandler(inner rpccore.Handler) rpccore.Handler {
	return func(t *host.Thread, cid uint16, req, out []byte) int {
		tr := b.tr
		if tr == nil {
			return inner(t, cid, req, out)
		}
		tag := getTag(req)
		tr.enter(regionHandler)
		simIn, hostIn := int64(t.P.Now()), tr.hostNow()
		n := inner(t, cid, req, out)
		simOut, hostOut := int64(t.P.Now()), tr.hostNow()
		tr.leave()
		// The transport may run a handler again for a retried request;
		// the first execution is the one the reply came from.
		if ci, seq := uint32(tag>>32), uint32(tag); int(ci) < len(b.conns) && int(seq) < len(b.conns[ci].spans) {
			if sp := &b.conns[ci].spans[seq]; sp.Sim[stHandlerIn] == 0 {
				sp.Sim[stHandlerIn], sp.Sim[stHandlerOut] = simIn, simOut
				sp.Host[stHandlerIn], sp.Host[stHandlerOut] = hostIn, hostOut
			}
		}
		return n
	}
}

// drain keeps polling conn after the closed-loop driver has stopped, until
// every outstanding request is answered or the deadline passes, so requests
// still in flight at the end of the window are resolved rather than lost.
func drain(t *host.Thread, conn rpccore.Conn, sig *sim.Signal, deadline sim.Time) {
	for conn.Outstanding() > 0 && t.P.Now() < deadline {
		if conn.Poll(t, func(rpccore.Response) {}) == 0 {
			t.WaitSignal(sig, 5*sim.Microsecond)
		}
	}
}
