package scalerpc

import (
	"encoding/binary"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// ClientState is the Figure 7 state of an RPCClient.
type ClientState int

// Client states (Figure 7).
const (
	StateIdle ClientState = iota
	StateWarmup
	StateProcess
)

func (s ClientState) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case StateWarmup:
		return "WARMUP"
	case StateProcess:
		return "PROCESS"
	}
	return "?"
}

type connSlot struct {
	busy   bool
	reqID  uint64
	staged bool // encoded request sits in the staging block (re-sendable)
	msgLen int  // encoded message length, for re-compaction
}

// Conn is a ScaleRPC RPCClient endpoint. It is driven by a single client
// thread; Poll advances the state machine.
type Conn struct {
	id  uint16
	h   *host.Host
	s   *Server
	qp  *nic.QP
	sig *sim.Signal

	stage *memory.Region
	// entryScratch is a tiny staging area for the endpoint-entry tuple.
	entryScratch *memory.Region
	resp         *rpcwire.Pool
	buf          []byte // request assembly buffer (no memory-model cost)
	// respBuf holds a stable snapshot of the response frame being
	// delivered: the response block is live RDMA-writable memory, and
	// ReadMem/WriteMem below yield virtual time during which a late
	// duplicate response may overwrite the slot in place.
	respBuf []byte

	state       ClientState
	zone        int
	poolIdx     int
	stagedCount int
	stagedSpan  int // max encoded span among staged requests this round
	round       uint32
	entryDirty  bool

	slots       []connSlot
	outstanding int

	// pinned marks a latency-sensitive connection: always PROCESS, always
	// pool 0, never context-switched.
	pinned bool

	// membership is the control-plane half (membership.go), zero for
	// connections admitted through the legacy Connect backdoor. Between
	// Leave and Rejoin the QP is parked in the connection cache and
	// TrySend/Poll are inert. joinPinned and joinTenant are stamped into
	// every join payload.
	membership
	joinPinned bool
	joinTenant uint16

	// Named-API state (api.go).
	nextHandle  uint64
	completions []Completion

	// Retries counts requests re-staged after a context switch found them
	// unanswered (the §3.5 at-least-once window).
	Retries uint64
	// Switches counts context_switch_events observed.
	Switches uint64
	// Reconnects counts connection rebuilds after a QP error.
	Reconnects uint64

	// trace is the server registry's event sink (always non-nil).
	trace *telemetry.Trace
}

// newConn registers a client endpoint's staging area, response pool and
// endpoint-entry scratch on ch and builds the Conn around them; the caller
// binds the QP and the id.
func (s *Server) newConn(ch *host.Host, sig *sim.Signal) *Conn {
	stage := ch.Mem.Register(s.Cfg.BlockSize*s.Cfg.BlocksPerClient, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead)
	respReg := ch.Mem.Register(s.Cfg.BlockSize*(s.Cfg.BlocksPerClient+1), memory.PageSize2M,
		memory.LocalWrite|memory.RemoteWrite)
	ch.NIC.WatchRegion(respReg.RKey, sig)
	return &Conn{
		h:            ch,
		s:            s,
		sig:          sig,
		stage:        stage,
		entryScratch: ch.Mem.Register(64, memory.PageSize4K, memory.LocalWrite),
		resp:         rpcwire.NewPool(respReg, s.Cfg.BlockSize, s.Cfg.BlocksPerClient+1, 1),
		buf:          make([]byte, s.Cfg.BlockSize),
		slots:        make([]connSlot, s.Cfg.BlocksPerClient),
		zone:         -1,
		poolIdx:      -1,
		trace:        s.trace,
	}
}

// adoptPlacement installs the server's placement decision. A pinned
// connection is in PROCESS on its reserved zone from the start: it skips
// warmup and sends in place.
func (c *Conn) adoptPlacement(pinned bool, zone int) {
	c.pinned = pinned
	if pinned {
		c.state = StateProcess
		c.zone = zone
		c.poolIdx = 0
	}
}

// idle drops the connection to IDLE, holding no zone in either pool.
func (c *Conn) idle() {
	c.state, c.zone, c.poolIdx = StateIdle, -1, -1
	c.traceState(StateIdle)
}

// traceState emits a client_state transition event.
func (c *Conn) traceState(to ClientState) {
	if c.trace.Enabled {
		c.trace.Emit(c.h.Env.Now(), "client_state",
			telemetry.A("client", int64(c.id)), telemetry.A("state", int64(to)))
	}
}

// State returns the connection's Figure 7 state.
func (c *Conn) State() ClientState { return c.state }

// Zone returns the current zone assignment (-1 when not in PROCESS).
func (c *Conn) Zone() int {
	if c.state != StateProcess {
		return -1
	}
	return c.zone
}

// SlotCount returns the request window size.
func (c *Conn) SlotCount() int { return len(c.slots) }

// Outstanding returns the number of in-flight requests.
func (c *Conn) Outstanding() int { return c.outstanding }

// TrySend posts one request. In IDLE it opens a new warmup round; in WARMUP
// it stages locally (step 1 of Figure 6) for the server to fetch; in
// PROCESS it RDMA-writes directly into the processing pool.
func (c *Conn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	if c.Left() {
		return false
	}
	// Batch the staging-area writes with the doorbell (direct sends) or the
	// end of the call (warmup staging) — one core charge per send. The lazy
	// close leaves any residue to be absorbed into the caller's next park.
	t.BeginWork()
	defer t.EndWorkLazy()
	switch c.state {
	case StateIdle:
		c.beginWarmup()
		return c.stageRequest(t, handler, payload, reqID)
	case StateWarmup:
		return c.stageRequest(t, handler, payload, reqID)
	case StateProcess:
		return c.directSend(t, handler, payload, reqID)
	}
	return false
}

// beginWarmup opens a new warmup round (IDLE → WARMUP).
func (c *Conn) beginWarmup() {
	c.round++
	c.stagedCount = 0
	c.stagedSpan = 0
	c.state = StateWarmup
	c.entryDirty = true
	c.traceState(StateWarmup)
}

// stageRequest encodes the request into the next contiguous staging block.
func (c *Conn) stageRequest(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	if c.stagedCount >= len(c.slots) {
		return false
	}
	b := c.stagedCount
	if c.slots[b].busy {
		return false // occupied by an unanswered request awaiting its turn
	}
	msgLen, ok := c.encodeInto(t, b, handler, payload, reqID)
	if !ok {
		return false
	}
	c.slots[b] = connSlot{busy: true, reqID: reqID, staged: true, msgLen: msgLen}
	c.stagedCount++
	if sp := msgLen + rpcwire.TrailerSize; sp > c.stagedSpan {
		c.stagedSpan = sp
	}
	c.outstanding++
	c.entryDirty = true
	return true
}

// directSend writes the request straight into the client's zone of the
// processing pool (PROCESS state).
func (c *Conn) directSend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	b := -1
	for i := range c.slots {
		if !c.slots[i].busy {
			b = i
			break
		}
	}
	if b < 0 {
		return false
	}
	msgLen, ok := c.encodeInto(t, b, handler, payload, reqID)
	if !ok || c.writeDirect(t, b, msgLen) != nil {
		return false
	}
	c.slots[b] = connSlot{busy: true, reqID: reqID, staged: true, msgLen: msgLen}
	c.outstanding++
	return true
}

// writeDirect RDMA-writes the msgLen-byte request staged in block b to the
// same block of the client's zone in the processing pool.
func (c *Conn) writeDirect(t *host.Thread, b, msgLen int) error {
	pool := c.s.pools[c.poolIdx]
	off, span := rpcwire.EncodedSpan(c.s.Cfg.BlockSize, msgLen)
	wr := nic.SendWR{
		Op:    nic.OpWrite,
		LKey:  c.stage.LKey,
		LAddr: c.stage.Base + uint64(b*c.s.Cfg.BlockSize+off),
		Len:   span,
		RKey:  pool.RKey(),
		RAddr: pool.BlockAddr(c.zone, b) + uint64(off),
	}
	if span <= c.h.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	return t.PostSend(c.qp, wr)
}

// encodeInto builds the framed request in staging block b.
func (c *Conn) encodeInto(t *host.Thread, b int, handler uint8, payload []byte, reqID uint64) (int, bool) {
	msgLen := rpcwire.HeaderSize + len(payload)
	if msgLen > rpcwire.MaxPayload(c.s.Cfg.BlockSize) {
		return 0, false
	}
	blockOff := b * c.s.Cfg.BlockSize
	block := c.stage.Bytes()[blockOff : blockOff+c.s.Cfg.BlockSize]
	rpcwire.PutHeader(c.buf, rpcwire.Header{ReqID: reqID, Handler: handler, ClientID: c.id})
	copy(c.buf[rpcwire.HeaderSize:], payload)
	if err := rpcwire.Encode(block, c.buf[:msgLen], 0); err != nil {
		return 0, false
	}
	off, span := rpcwire.EncodedSpan(c.s.Cfg.BlockSize, msgLen)
	t.WriteMem(c.stage.Base+uint64(blockOff+off), span)
	return msgLen, true
}

// flushEndpointEntry RDMA-writes the <staged count, round> tuple to the
// server's endpoint entry (Figure 6 step 2). Inline: 8 bytes.
func (c *Conn) flushEndpointEntry(t *host.Thread) {
	if !c.entryDirty || c.state != StateWarmup {
		return
	}
	c.entryDirty = false
	b := c.entryScratch.Bytes()
	binary.LittleEndian.PutUint32(b, uint32(c.stagedCount))
	binary.LittleEndian.PutUint32(b[4:], c.round)
	binary.LittleEndian.PutUint32(b[8:], uint32(c.stagedSpan))
	t.WriteMem(c.entryScratch.Base, endpointEntrySize)
	wr := nic.SendWR{
		Op:     nic.OpWrite,
		LKey:   c.entryScratch.LKey,
		LAddr:  c.entryScratch.Base,
		Len:    endpointEntrySize,
		RKey:   c.s.EndpointRKey(),
		RAddr:  c.s.EndpointEntryAddr(c.id),
		Inline: true,
	}
	t.PostSend(c.qp, wr)
}

// Poll drains responses, advances the state machine, flushes any pending
// endpoint-entry update, and — after a QP error — rebuilds the connection.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	if c.Left() {
		return 0
	}
	if c.qp.Err() != nil {
		c.reconnect(t)
		return 0
	}
	c.flushEndpointEntry(t)
	// The whole poll scan is one deferred-charge region: the per-block valid
	// checks settle as a single core charge instead of one scheduler round
	// trip each. PostSend (via flushEndpointEntry in onContextSwitch) and any
	// blocking path flush first, so externally visible actions still land at
	// fully-charged virtual times. The lazy close leaves an empty scan's
	// residue pending so the caller's park absorbs it (host.Thread.WaitSignal)
	// instead of paying a second scheduler wake-up.
	t.BeginWork()
	defer t.EndWorkLazy()
	got := 0
	switched := false

	// Control block: explicit context_switch_event.
	ctrl := c.resp.Block(0, c.s.Cfg.BlocksPerClient)
	t.ReadMem(c.resp.ValidAddr(0, c.s.Cfg.BlocksPerClient), 1)
	if rpcwire.Valid(ctrl) {
		if _, flags, err := rpcwire.Decode(ctrl); err == nil {
			if flags&rpcwire.FlagContextSwitch != 0 {
				switched = true
			}
		} else {
			c.s.rel.CRCDrops++
		}
		rpcwire.Clear(ctrl)
		t.WriteMem(c.resp.ValidAddr(0, c.s.Cfg.BlocksPerClient), 1)
	}

	for b := range c.slots {
		if !c.slots[b].busy {
			continue
		}
		t.ReadMem(c.resp.ValidAddr(0, b), 1)
		block := c.resp.Block(0, b)
		if !rpcwire.Valid(block) {
			continue
		}
		payload, flags, err := rpcwire.Decode(block)
		if err != nil {
			// A corrupted response: treat as loss; the deadline/retry layer
			// (or the context-switch re-stage) recovers the call.
			c.s.rel.CRCDrops++
			rpcwire.Clear(block)
			t.WriteMem(c.resp.ValidAddr(0, b), 1)
			continue
		}
		// Snapshot the CRC-validated frame before yielding: ReadMem and
		// the Clear/WriteMem below advance virtual time, and a late
		// duplicate response write may overwrite the block under us.
		c.respBuf = append(c.respBuf[:0], payload...)
		t.ReadMem(c.resp.BlockAddr(0, b), len(payload)+rpcwire.TrailerSize)
		hdr, body, herr := rpcwire.ParseHeader(c.respBuf)
		stale := herr != nil || hdr.ReqID != c.slots[b].reqID // for the slot's previous occupant
		rpcwire.Clear(block)
		t.WriteMem(c.resp.ValidAddr(0, b), 1)
		if stale {
			continue
		}
		// Invalidate the staged copy as well. Round bumps (retry resends,
		// switch restages) make the server re-fetch every staging block up
		// to the advertised count, holes included; a completed frame left
		// valid in its hole would be re-offered and — once the server's
		// bounded dedup window rotates past it — re-executed.
		stageOff := b * c.s.Cfg.BlockSize
		rpcwire.Clear(c.stage.Bytes()[stageOff : stageOff+c.s.Cfg.BlockSize])
		t.WriteMem(c.stage.Base+uint64(stageOff+rpcwire.ValidOffset(c.s.Cfg.BlockSize)), 1)
		c.slots[b] = connSlot{}
		c.outstanding--
		got++
		// Zone/pool assignment rides on responses (WARMUP → PROCESS);
		// late-swept responses carry no assignment.
		if hdr.ClientID&^poolBit != zoneNone {
			c.zone = int(hdr.ClientID &^ poolBit)
			c.poolIdx = 0
			if hdr.ClientID&poolBit != 0 {
				c.poolIdx = 1
			}
			if c.state == StateWarmup {
				c.state = StateProcess
				c.traceState(StateProcess)
			}
		}
		if flags&rpcwire.FlagContextSwitch != 0 {
			switched = true
		}
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: flags&rpcwire.FlagError != 0})
	}

	if switched {
		c.Switches++
		c.onContextSwitch(t)
	}
	return got
}

// onContextSwitch moves PROCESS/WARMUP → IDLE; unanswered requests are
// compacted to the front of the staging area and re-offered in a fresh
// warmup round (the at-least-once retry covering the switch race).
func (c *Conn) onContextSwitch(t *host.Thread) {
	c.idle()
	// Compact surviving requests to staging blocks 0..m-1.
	m := 0
	for b := range c.slots {
		if !c.slots[b].busy {
			continue
		}
		if b != m {
			src := c.stage.Bytes()[b*c.s.Cfg.BlockSize : (b+1)*c.s.Cfg.BlockSize]
			dst := c.stage.Bytes()[m*c.s.Cfg.BlockSize : (m+1)*c.s.Cfg.BlockSize]
			copy(dst, src)
			off, span := rpcwire.EncodedSpan(c.s.Cfg.BlockSize, c.slots[b].msgLen)
			t.ReadMem(c.stage.Base+uint64(b*c.s.Cfg.BlockSize+off), span)
			t.WriteMem(c.stage.Base+uint64(m*c.s.Cfg.BlockSize+off), span)
			c.slots[m] = c.slots[b]
			c.slots[b] = connSlot{}
			// The move leaves a byte-identical residue at the source block;
			// invalidate it so a later round whose count spans this far
			// cannot re-offer the frame a second time.
			rpcwire.Clear(src)
			t.WriteMem(c.stage.Base+uint64(b*c.s.Cfg.BlockSize+rpcwire.ValidOffset(c.s.Cfg.BlockSize)), 1)
		}
		c.Retries++
		m++
	}
	if m > 0 {
		c.round++
		c.stagedCount = m
		c.refreshStagedSpan()
		c.state = StateWarmup
		c.entryDirty = true
		c.traceState(StateWarmup)
		c.flushEndpointEntry(t)
	}
}

// reconnect rebuilds the connection after a QP error (timeout/RNR retries
// exhausted or a remote access error): back off, re-admit through the
// server, then treat the failure like a context switch — every unanswered
// request is compacted into the staging area and re-offered in a fresh
// warmup round, giving the same at-least-once semantics as the switch race.
// If the link is still down the new QP errors too and the next Poll retries,
// so the backoff paces reconnect attempts through an outage.
func (c *Conn) reconnect(t *host.Thread) {
	if d := c.s.Cfg.Failure.ReconnectBackoff; d > 0 {
		t.P.Sleep(d)
	}
	// Control-plane-admitted connections re-dial through the in-band
	// handshake; on failure the next Poll retries (paced by the backoff
	// above). A backdoor connection's Rejoin does nothing but say so.
	if err := c.Rejoin(t); err != ctrlplane.ErrNotManaged {
		if err == nil {
			c.Reconnects++
		}
		return
	}
	c.s.Reconnect(c)
	c.Reconnects++
	c.traceState(StateIdle)
	if c.pinned {
		// Pinned clients skip warmup; pick up the (possibly new) reserved
		// zone and resend in place. If reserved zones were exhausted on
		// readmission, fall back to the grouped path below.
		cs := c.s.clients[c.id]
		if c.adoptPlacement(cs.Pinned, cs.zone); c.pinned {
			return
		}
	}
	c.onContextSwitch(t)
}

// Reconnect forces a teardown and readmission even if the QP has not errored
// yet. Poll calls the same path automatically after a QP error; consumers
// that learn of a failure out of band (an application-level timeout, a
// cluster-membership notification) use this instead of waiting for Poll to
// notice.
func (c *Conn) Reconnect(t *host.Thread) { c.reconnect(t) }

// Resend re-issues the in-flight request identified by reqID without
// consuming a new slot (the rpccore.Resender hook behind Caller retries
// and hedges). In PROCESS the staged frame is RDMA-written to the same
// pool slot again; in WARMUP/IDLE the staged batch is re-offered by
// opening a fresh warmup round, which makes the scheduler re-fetch every
// staged block. Server-side dedup absorbs any duplicate delivery.
func (c *Conn) Resend(t *host.Thread, reqID uint64) bool {
	if c.Left() || c.qp.Err() != nil {
		return false
	}
	b := c.slotOf(reqID)
	if b < 0 || !c.slots[b].staged {
		return false
	}
	if c.state != StateProcess {
		// Staged but not yet (or no longer) deliverable directly: bump the
		// round so the server's warmup fetch re-reads the staging area.
		if c.state == StateIdle {
			c.beginWarmup()
			c.stagedCount = c.slotSpanEnd()
			c.refreshStagedSpan()
		} else {
			c.round++
			c.entryDirty = true
		}
		c.flushEndpointEntry(t)
		return true
	}
	return c.writeDirect(t, b, c.slots[b].msgLen) == nil
}

// Cancel withdraws the in-flight request identified by reqID (the
// rpccore.Canceler hook behind Caller deadlines). The slot is freed and
// its staged frame invalidated in place, so later warmup restages stop
// re-offering a request the application has already written off — an
// abandoned frame that keeps circulating can outlive the server's dedup
// window and re-execute. A copy already fetched into the processing pool
// may still run once; cancellation only guarantees the request stops
// being offered from here on.
func (c *Conn) Cancel(t *host.Thread, reqID uint64) bool {
	b := c.slotOf(reqID)
	if b < 0 {
		return false
	}
	blockOff := b * c.s.Cfg.BlockSize
	block := c.stage.Bytes()[blockOff : blockOff+c.s.Cfg.BlockSize]
	rpcwire.Clear(block)
	t.WriteMem(c.stage.Base+uint64(blockOff+rpcwire.ValidOffset(c.s.Cfg.BlockSize)), 1)
	c.slots[b] = connSlot{}
	c.outstanding--
	c.entryDirty = true
	return true
}

// slotOf returns the slot of the in-flight request reqID, or -1.
func (c *Conn) slotOf(reqID uint64) int {
	for i := range c.slots {
		if c.slots[i].busy && c.slots[i].reqID == reqID {
			return i
		}
	}
	return -1
}

// slotSpanEnd returns one past the highest busy staged slot — the staged
// count a fresh warmup round must advertise to cover every survivor.
func (c *Conn) slotSpanEnd() int {
	end := 0
	for i := range c.slots {
		if c.slots[i].busy && c.slots[i].staged {
			end = i + 1
		}
	}
	return end
}

// refreshStagedSpan recomputes the max encoded span over staged slots.
func (c *Conn) refreshStagedSpan() {
	c.stagedSpan = 0
	for i := range c.slots {
		if !c.slots[i].busy || !c.slots[i].staged {
			continue
		}
		if sp := c.slots[i].msgLen + rpcwire.TrailerSize; sp > c.stagedSpan {
			c.stagedSpan = sp
		}
	}
}

var _ rpccore.Conn = (*Conn)(nil)
var _ rpccore.Resender = (*Conn)(nil)
