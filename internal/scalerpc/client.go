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
	if s < 0 || int(s) >= len(stateNames) {
		return "?"
	}
	return stateNames[s]
}

var stateNames = [...]string{"IDLE", "WARMUP", "PROCESS"}

// Conn is a ScaleRPC RPCClient endpoint. It is driven by a single client
// thread; Poll advances the state machine.
type Conn struct {
	h   *host.Host
	s   *Server
	sig *sim.Signal

	// req stages requests and WRITEs them into the processing pool; its QP
	// and ID are the connection's identity.
	req rpccore.ReqWriter
	// entryScratch is the staging area of the endpoint entry.
	entryScratch *memory.Region
	// resp takes the responses, one block per slot, and the control block
	// past them.
	resp rpccore.RespPool
	// respBuf holds a stable snapshot of the response frame being
	// delivered (rpccore.ReadSlot).
	respBuf []byte

	// fig7 is the protocol state; only its transitions change it.
	fig7

	// win is the request window: a busy slot's encoded request sits in the
	// staging block of the same index until its response arrives, so it can
	// be re-offered or re-sent in place. reoffered marks the busy slots a
	// context switch re-offered unanswered (the window is at most
	// rpccore.ScratchRing slots).
	win       rpccore.Window
	reoffered uint64

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
	// LateCompletions counts requests a context switch re-offered that were
	// then answered by a drain or late-sweep response (one carrying the
	// switch flag): unanswered requests keep their slots across a switch,
	// so such a response completes the slot it was sent for.
	LateCompletions uint64

	// trace is the server registry's event sink (always non-nil).
	trace *telemetry.Trace
}

// newConn registers a client endpoint's staging area, response pool and
// endpoint-entry scratch on ch and builds the Conn around them; the caller
// binds the QP and the id.
func (s *Server) newConn(ch *host.Host, sig *sim.Signal) *Conn {
	return &Conn{
		h:            ch,
		s:            s,
		sig:          sig,
		req:          rpccore.NewReqWriter(ch, s.Cfg.BlocksPerClient, nic.OpWrite),
		resp:         rpccore.NewRespPool(ch, sig, s.Cfg.BlocksPerClient, s.rel),
		entryScratch: ch.Mem.Register(entrySize(s.Cfg.BlocksPerClient), memory.PageSize4K, memory.LocalWrite),
		win:          rpccore.NewWindow(s.Cfg.BlocksPerClient),
		fig7:         fig7{}.idle(),
		trace:        s.trace,
	}
}

// adoptPlacement installs the server's placement decision. A pinned
// connection is in PROCESS on its reserved zone from the start: it skips
// warmup and sends in place.
func (c *Conn) adoptPlacement(pinned bool, zone int) {
	c.pinned = pinned
	if pinned {
		c.fig7 = c.fig7.pin(zone)
	}
}

// enter installs the state a transition returned, tracing a change of state.
func (c *Conn) enter(next fig7) {
	if next.state != c.state {
		c.traceState(next.state)
	}
	c.fig7 = next
}

// traceState emits a client_state transition event.
func (c *Conn) traceState(to ClientState) {
	if c.trace.Enabled {
		c.trace.Emit(c.h.Env.Now(), "client_state",
			telemetry.A("client", int64(c.req.ID)), telemetry.A("state", int64(to)))
	}
}

// State returns the connection's Figure 7 state.
func (c *Conn) State() ClientState { return c.state }

// processZone returns the zone the connection writes directly into, -1 when
// not in PROCESS.
func (c *Conn) processZone() int {
	if c.state != StateProcess {
		return -1
	}
	return c.zone
}

// SlotCount returns the request window size.
func (c *Conn) SlotCount() int { return c.win.SlotCount() }

// Outstanding returns the number of in-flight requests.
func (c *Conn) Outstanding() int { return c.win.Outstanding() }

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
	next, direct := c.fig7.send(false)
	if direct {
		return c.req.Send(t, &c.win, c.s.pools[c.poolIdx].Pool, c.zone, handler, payload, reqID)
	}
	c.enter(next)
	return c.stageRequest(t, handler, payload, reqID)
}

// stageRequest encodes the request into the staging block just past the
// highest busy slot, so a round's requests stay contiguous from block 0.
func (c *Conn) stageRequest(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	b := staged(&c.win)
	if b >= c.win.SlotCount() {
		return false // the window is full, or its top slot awaits its turn
	}
	msgLen, ok := c.req.Stage(t, b, handler, payload, reqID)
	if !ok {
		return false
	}
	c.fig7 = c.fig7.stage(b)
	c.win.Take(b, reqID, msgLen)
	return true
}

// flushEndpointEntry RDMA-writes the endpoint entry to the server (Figure 6
// step 2): the staged count and round, then every block's exact encoded
// span, 0 for a slot answered or withdrawn. Inline: 8 bytes plus 2 per
// block, 40 at the default 16 blocks.
func (c *Conn) flushEndpointEntry(t *host.Thread) {
	next, staged, ok := c.fig7.flush(&c.win)
	if !ok {
		return
	}
	c.fig7 = next
	var b [entryHeader + 2*rpccore.ScratchRing]byte
	binary.LittleEndian.PutUint32(b[:], uint32(staged))
	binary.LittleEndian.PutUint32(b[4:], c.round)
	for i, sl := range c.win.Slots {
		if sl.Busy {
			binary.LittleEndian.PutUint16(b[entryHeader+2*i:], uint16(sl.MsgLen+rpcwire.TrailerSize))
		}
	}
	n := entrySize(c.win.SlotCount())
	_, _ = c.entryScratch.WriteAt(b[:n], 0) // the scratch holds a full window's entry
	t.WriteMem(c.entryScratch.Base, n)
	t.PostSend(c.req.QP, nic.SendWR{
		Op: nic.OpWrite, LKey: c.entryScratch.LKey, LAddr: c.entryScratch.Base,
		Len: n, RKey: c.s.endpoint.RKey, RAddr: c.s.entryAddr(c.req.ID), Inline: true,
	})
}

// Poll drains responses, advances the state machine, flushes any pending
// endpoint-entry update, and — after a QP error — rebuilds the connection.
func (c *Conn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	if c.Left() {
		return 0
	}
	if c.req.QP.Err() != nil {
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

	// Control block: explicit context_switch_event. A corrupted one reads
	// as absent (see the switch flag on responses below).
	ctrl := c.s.Cfg.BlocksPerClient
	if _, flags, _, ok := rpccore.ReadSlot(t, c.resp.Pool, c.s.rel, 0, ctrl, true, &c.respBuf); ok {
		switched = flags&rpcwire.FlagContextSwitch != 0
		c.resp.Release(t, ctrl)
	}

	for b := range c.win.Slots {
		if !c.win.Slots[b].Busy {
			continue
		}
		// A corrupted response reads as absent: the deadline/retry layer
		// (or the context-switch re-stage) recovers the call.
		msg, flags, _, ok := rpccore.ReadSlot(t, c.resp.Pool, c.s.rel, 0, b, true, &c.respBuf)
		if !ok {
			continue
		}
		off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, len(msg))
		t.ReadMem(c.resp.BlockAddr(0, b)+uint64(off), span)
		hdr, body, herr := rpcwire.ParseHeader(msg)
		c.resp.Release(t, b)
		if herr != nil {
			continue
		}
		switched = c.fig7.switches(hdr.ClientID, flags&rpcwire.FlagContextSwitch != 0) || switched
		if hdr.ReqID != c.win.Slots[b].ReqID {
			c.s.rel.StaleResponses++ // for the slot's previous occupant
			continue
		}
		// Invalidate the staged copy as well. Round bumps (retry resends,
		// switch restages) make the server re-fetch every block the entry
		// it last read names, and one flushed before this answer still
		// names this block; a completed frame left valid there would be
		// re-offered and — once the server's bounded dedup window rotates
		// past it — re-executed.
		c.clearStaged(t, b)
		if c.reoffered&(1<<b) != 0 && flags&rpcwire.FlagContextSwitch != 0 {
			c.LateCompletions++
		}
		c.release(b)
		got++
		c.enter(c.fig7.released(hdr.ClientID))
		fn(rpccore.Response{ReqID: hdr.ReqID, Payload: body, Err: flags&rpcwire.FlagError != 0})
	}

	if switched {
		c.Switches++
		c.onContextSwitch(t)
	}
	return got
}

// onContextSwitch takes the switched edge (fig7.switched). Unanswered
// requests keep their slots, so a response still in flight completes the
// slot it was sent for.
func (c *Conn) onContextSwitch(t *host.Thread) {
	c.fig7 = c.fig7.switched(c.win.Outstanding() > 0)
	c.traceState(StateIdle)
	for b := range c.win.Slots {
		if c.win.Slots[b].Busy {
			c.reoffered |= 1 << b
			c.Retries++
		}
	}
	if c.state == StateWarmup {
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
	t.P.Sleep(reconnectBackoff)
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
	// A pinned client picks up its (possibly new) reserved zone, or the
	// grouped path when reserved zones were exhausted on readmission.
	cs := c.s.clients[c.req.ID]
	c.adoptPlacement(cs.Pinned, cs.zones[processing])
	c.resume(t)
}

// resume puts a readmitted connection back to work: a pinned one resends in
// place, any other takes the switched edge, re-offering what is unanswered.
func (c *Conn) resume(t *host.Thread) {
	if !c.pinned {
		c.onContextSwitch(t)
	}
}

// Resend re-issues the in-flight request identified by reqID without
// consuming a new slot (the rpccore.Resender hook behind Caller retries
// and hedges). In PROCESS the staged frame is RDMA-written to the same
// pool slot again; in WARMUP/IDLE the staged batch is re-offered by
// opening a fresh warmup round, which makes the scheduler re-fetch every
// staged block. Server-side dedup absorbs any duplicate delivery.
func (c *Conn) Resend(t *host.Thread, reqID uint64) bool {
	if c.Left() || c.req.QP.Err() != nil {
		return false
	}
	b := c.win.Find(reqID)
	if b < 0 {
		return false
	}
	next, direct := c.fig7.send(true)
	if direct {
		return c.req.Post(t, c.s.pools[c.poolIdx].Pool, c.zone, b, c.win.Slots[b].MsgLen)
	}
	c.enter(next)
	c.flushEndpointEntry(t)
	return true
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
	b := c.win.Find(reqID)
	if b < 0 {
		return false
	}
	c.clearStaged(t, b)
	c.release(b)
	c.fig7 = c.fig7.released(zoneNone)
	return true
}

// release frees slot b.
func (c *Conn) release(b int) {
	c.win.Release(b)
	c.reoffered &^= 1 << b
}

// clearStaged invalidates the frame staged in block b, so no later warmup
// round offers it again.
func (c *Conn) clearStaged(t *host.Thread, b int) {
	stageOff := b * rpcwire.BlockSize
	var zero [1]byte
	_, _ = c.req.Region.WriteAt(zero[:], int64(stageOff+rpcwire.ValidOffset(rpcwire.BlockSize))) // b is a window slot
	t.WriteMem(c.req.Region.Base+uint64(stageOff+rpcwire.ValidOffset(rpcwire.BlockSize)), 1)
}

var _ rpccore.Conn = (*Conn)(nil)
var _ rpccore.Resender = (*Conn)(nil)

// fig7 is a client's Figure 7 state: what the protocol's decisions read and
// change. The decisions are its methods, pure as group.go's plan is: each
// takes the state by value and returns the next, and the Conn that applies
// one keeps every memory access, post and charge it implies at the call
// site.
type fig7 struct {
	state   ClientState
	zone    int // the zone PROCESS writes directly into, in pool poolIdx
	poolIdx int
	// roundHigh is the highest count flushed this round: the server may have
	// fetched every block below it, so a request staged below it needs a new
	// round.
	roundHigh  int
	round      uint32
	entryDirty bool // the endpoint entry has changed since its last flush
}

// pin is a latency-sensitive client's state: PROCESS on its reserved zone
// in pool 0 from admission on. It skips warmup and is never switched.
func (f fig7) pin(zone int) fig7 {
	f.state, f.zone, f.poolIdx = StateProcess, zone, 0
	return f
}

// idle is IDLE, holding no zone in either pool.
func (f fig7) idle() fig7 {
	f.state, f.zone, f.poolIdx = StateIdle, -1, -1
	return f
}

// warmup opens a new warmup round (→ WARMUP): the scheduler fetches the
// round's staged blocks afresh.
func (f fig7) warmup() fig7 {
	f.round++
	f.roundHigh = 0
	f.state = StateWarmup
	f.entryDirty = true
	return f
}

// send decides how a request goes out, or a busy slot's goes out again
// (again, Resend). PROCESS writes it directly into the client's zone;
// otherwise it is staged for the scheduler to fetch (Figure 6 step 1), and
// in IDLE a warmup round opens first. A resend in WARMUP moves to a new
// round, so the scheduler re-fetches every staged block.
func (f fig7) send(again bool) (next fig7, direct bool) {
	switch {
	case f.state == StateProcess:
		return f, true
	case f.state == StateIdle:
		return f.warmup(), false
	case again:
		f.round++
		f.entryDirty = true
	}
	return f, false
}

// stage is the state after a request is staged in block b. The server may
// have fetched a block below roundHigh this round, so b opens a new round.
func (f fig7) stage(b int) fig7 {
	if b < f.roundHigh {
		f.round++
		f.roundHigh = 0
	}
	f.entryDirty = true
	return f
}

// flush decides whether the endpoint entry goes out (Figure 6 step 2): only
// in WARMUP, and only when it changed. It advertises count, the staged count
// of win.
func (f fig7) flush(win *rpccore.Window) (next fig7, count int, ok bool) {
	if !f.entryDirty || f.state != StateWarmup {
		return f, 0, false
	}
	count = staged(win)
	f.entryDirty = false
	f.roundHigh = max(f.roundHigh, count)
	return f, count, true
}

// staged is the count a warmup round advertises: one past the highest busy
// slot, so it covers every unanswered request in the slot it holds.
func staged(win *rpccore.Window) int {
	for b := win.SlotCount(); b > 0; b-- {
		if win.Slots[b-1].Busy {
			return b
		}
	}
	return 0
}

// switches decides whether a response whose header carries zoneWord, with
// the switch flag set when flag, takes the client to IDLE. A flag on a
// response that carries a zone comes from the drain. A late-swept response
// carries none: the late sweep posts after its switch's drain responses and
// notification on the same RC QP, so a client out of PROCESS has already
// acted on that switch, and acting again would re-offer, and the server
// fetch twice, what it re-offered then. A client still in PROCESS lost the
// notification (a corrupted frame) and acts now.
func (f fig7) switches(zoneWord uint16, flag bool) bool {
	return flag && (zoneWord&^poolBit != zoneNone || f.state == StateProcess)
}

// released is the state after a busy slot is freed: by a response whose
// header carries zoneWord, or by a cancel (zoneNone). The zone word, when
// there is one, is the client's zone and pool, and takes WARMUP to PROCESS.
// A client still in WARMUP waits to be fetched and stops advertising the
// slot; out of WARMUP the entry is not flushed, and warmup marks it changed
// on the way back in.
func (f fig7) released(zoneWord uint16) fig7 {
	if zoneWord&^poolBit != zoneNone {
		f.zone = int(zoneWord &^ poolBit)
		f.poolIdx = int(zoneWord / poolBit)
		if f.state == StateWarmup {
			f.state = StateProcess
		}
	}
	if f.state == StateWarmup {
		f.entryDirty = true
	}
	return f
}

// switched is the → IDLE edge of a context switch, or of a reconnect or a
// rejoin, which are treated like one: the client gives up its zone, and
// with requests outstanding it opens a fresh warmup round at once, which
// re-offers every one of them (the at-least-once retry covering the switch
// race).
func (f fig7) switched(outstanding bool) fig7 {
	f = f.idle()
	if outstanding {
		f = f.warmup()
	}
	return f
}
