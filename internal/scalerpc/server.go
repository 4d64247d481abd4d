package scalerpc

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// endpointEntrySize is the per-client endpoint entry: staged-request
// count, warmup round number, and the largest encoded span staged —
// RDMA-written by clients (§3.3, Figure 6). The span lets the scheduler
// fetch only the right-aligned tail of each staged block instead of whole
// blocks, keeping warmup traffic proportional to message size.
const endpointEntrySize = 12

// scratchRing is the per-worker response staging depth.
const scratchRing = 64

// poolBit marks which physical pool a zone assignment refers to, packed
// into the response header's ClientID field alongside the zone index.
const poolBit = 1 << 15

// zoneNone in a response header's ClientID field means "no zone
// assignment in this response".
const zoneNone = uint16(0x7FFF)

// clientState is the server-side record for one connected RPCClient.
type clientState struct {
	// Member is the roster's part of the record (membership.go): id, QP,
	// dialing peer (DemotePeer and RestorePeer act on every client of a
	// peer), tenant, and the Parked/Limbo flags — a parked or quarantined
	// client keeps its id and regions but the scheduler skips it entirely
	// until the control plane readmits it. Pinned marks a latency-sensitive
	// client on a reserved zone: never grouped, never switched, always
	// served from pool 0.
	ctrlplane.Member

	// Client-exported regions (exchanged at connect).
	respAddr  uint64
	respRKey  uint32
	stageAddr uint64
	stageRKey uint32

	// Group/zone placement.
	group int
	zone  int // zone in the current processing pool, -1 if not current

	// Warmup bookkeeping.
	lastRound    uint32
	fetchedUpTo  int
	warmZone     int // zone in the warmup pool, -1 if not warming
	pendingFetch int // outstanding warmup READs

	// Metrics for the priority scheduler (per current slice window).
	served   uint64
	bytes    uint64
	priority float64

	// notifiedEpoch is the last switch epoch whose context_switch_event
	// reached this client piggybacked on a response.
	notifiedEpoch uint64

	// missedSlices counts the consecutive slices of its own this client went
	// without a served request, less one per liveness probe already spent on
	// it. A slice counts for the share of a clock-driven rotation that
	// passed since the failure scan before (scannedAt, and the server's
	// sliceCut then): 1 unless slices ended early. See scanFailures.
	missedSlices float64
	scannedAt    sim.Time
	scannedCut   sim.Duration

	// demoted marks a client whose peer the failure detector has demoted:
	// it keeps full service, but liveness probes are suppressed (a probe on
	// a lossy link exhausts the RC retry budget and falsely evicts) and the
	// scheduler isolates it into suspect-only groups so healthy clients
	// never share a slice with it.
	demoted bool
}

type worker struct {
	s          *Server
	idx        int
	sig        *sim.Signal
	scratch    *memory.Region
	scratchIdx int
	buf        []byte
	// req holds a stable snapshot of the frame being served: the pool
	// block is live RDMA-writable memory, and the serve path yields
	// virtual time (ReadMem, ParseCost, the handler's own Work), during
	// which an in-flight write may overwrite the block in place.
	req      []byte
	drainAck uint64
	Served   uint64
	Sweeps   uint64
	Sleeps   uint64
}

type legacyJob struct {
	cs      *clientState
	slot    int
	handler uint8
	reqID   uint64
	body    []byte
}

// Server is a ScaleRPC RPCServer.
type Server struct {
	Cfg   ServerConfig
	Host  *host.Host
	Stats Stats

	pools    [2]*rpcwire.Pool
	procIdx  int // pools[procIdx] is the processing pool
	endpoint *memory.Region

	handlers [256]rpccore.Handler
	legacy   [256]bool
	legacyQ  *sim.Queue[legacyJob]

	clients []*clientState
	groups  [][]uint16
	cur     int // index of the group being served

	// roster owns the identity lifecycle of control-plane clients and the
	// tenant gate's open/close pairing; mgr is the manager the server is
	// bound to (membership.go).
	roster *ctrlplane.Roster
	mgr    *ctrlplane.Manager

	// zoneOwner maps processing-pool zones to client ids (the context
	// metadata of §3.3); warmOwner is the same for the warmup pool.
	zoneOwner []int // -1 = unowned
	warmOwner []int
	// warmEpoch stamps each warmup-pool zone with the switch epoch during
	// which assignWarm last (re)asserted its binding. Promotion trusts a
	// zone's resident frames only if it was warmed during the slice that
	// just ended; anything older — a pool frozen out of rotation while the
	// cluster ran single-group, a binding left over from before a regroup —
	// is wiped before the zone is served, because its frames were fetched
	// for a round the clients have long since retired.
	warmEpoch []uint64

	workers []*worker

	// regroupDue forces a regroup at the next context switch — set when a
	// demotion or restore changes the partition key of grouped clients, so
	// the re-partition happens on the switch path (where departing groups
	// are notified) instead of yanking zones mid-slice.
	regroupDue bool

	// Switch coordination.
	epoch      uint64
	draining   bool
	drainCount int
	schedSig   *sim.Signal
	resumeSig  *sim.Signal

	// Global synchronization phase adjustment (applied to the next slice).
	// synced marks a member of a SyncGroup: its slices end on the clock
	// only, because an early switch would break the group's common pace.
	phaseAdjust sim.Duration
	nextSwitch  sim.Time
	synced      bool

	// What the scheduler's early-switch rule reads each tick: usefulNs is
	// the cumulative parse + handler time of served requests (sweep polling
	// is not work), groupServed the cumulative requests served for rotating
	// (not pinned) clients, warmFetched the requests fetched into the warmup
	// pool since the slice began. sliceScale is planned over actual length
	// of the slice being settled, 1 unless it ended early.
	usefulNs    uint64
	groupServed uint64
	warmFetched uint64
	sliceScale  float64
	// sliceCut is the cumulative time early switches have taken off their
	// slices' budgets: what turns elapsed time back into rotations of the
	// clock-driven schedule for everything that used to count slices.
	sliceCut sim.Duration

	// scratch is the switch path's working memory (scheduler.go).
	scratch switchScratch

	// Scheduler-owned response staging for explicit notifications.
	schedScratch    *memory.Region
	schedScratchIdx int
	schedBuf        []byte
	// schedReq is the late sweep's stable request snapshot (same aliasing
	// hazard as worker.req).
	schedReq []byte

	// Telemetry: tel is this server's scope ("scalerpc", or "scalerpc#N"
	// for later instances on the same registry); trace is always non-nil.
	tel       telemetry.Scope
	trace     *telemetry.Trace
	handlerNs *telemetry.Histogram
	sliceNs   *telemetry.Histogram

	// tenantAuth, when set, gates admission and shapes scheduling per
	// tenant (see tenancy.go). Nil disables all tenant machinery.
	tenantAuth TenantAuthority

	// rel is the registry-shared end-to-end reliability counter block;
	// replies is the bounded exactly-once reply cache consulted before
	// every handler execution (worker sweep, legacy thread, late sweep).
	rel     *rpccore.RelStats
	replies *rpccore.ReplyCache

	started bool
}

// NewServer allocates pools and bookkeeping on h.
func NewServer(h *host.Host, cfg ServerConfig) *Server {
	zones := cfg.totalZones()
	poolBytes := cfg.BlockSize * cfg.BlocksPerClient * zones
	s := &Server{
		Cfg:       cfg,
		Host:      h,
		endpoint:  h.Mem.Register(endpointEntrySize*cfg.MaxClients, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite),
		legacyQ:   sim.NewQueue[legacyJob](h.Env),
		zoneOwner: make([]int, zones),
		warmOwner: make([]int, zones),
		warmEpoch: make([]uint64, zones),
		schedSig:  sim.NewSignal(h.Env),
		resumeSig: sim.NewSignal(h.Env),
		replies:   rpccore.NewReplyCache(cfg.BlocksPerClient),
	}
	s.roster = ctrlplane.NewRoster("scalerpc", cfg.MaxClients, placement{s})
	s.rel = rpccore.SharedRel(h.Tel.Registry())
	if reg := h.Tel.Registry(); reg != nil {
		s.tel = reg.UniqueScope("scalerpc")
	}
	s.trace = s.tel.Trace()
	srv := s.tel.Scope("server")
	srv.CounterVar("switches", &s.Stats.Switches)
	srv.CounterVar("early_switches", &s.Stats.EarlySwitches)
	srv.CounterVar("warmup_reads", &s.Stats.WarmupReads)
	srv.CounterVar("notifies", &s.Stats.Notifies)
	srv.CounterVar("piggybacked", &s.Stats.Piggybacked)
	srv.CounterVar("stale_drops", &s.Stats.StaleDrops)
	srv.CounterVar("legacy_calls", &s.Stats.LegacyCalls)
	srv.CounterVar("legacy_marked", &s.Stats.LegacyMarked)
	srv.CounterVar("regroups", &s.Stats.Regroups)
	srv.CounterVar("served", &s.Stats.Served)
	srv.CounterVar("pinned_served", &s.Stats.PinnedServed)
	srv.CounterVar("late_served", &s.Stats.LateServed)
	srv.CounterVar("probes", &s.Stats.Probes)
	srv.CounterVar("demotes", &s.Stats.Demotes)
	srv.CounterVar("restores", &s.Stats.Restores)
	srv.CounterVar("evictions", &s.Stats.Evictions)
	srv.CounterVar("readmits", &s.Stats.Readmits)
	srv.CounterVar("joins", &s.Stats.Joins)
	srv.CounterVar("leaves", &s.Stats.Leaves)
	srv.CounterVar("expires", &s.Stats.Expires)
	s.handlerNs = srv.Histogram("handler_ns")
	s.sliceNs = srv.Histogram("slice_ns")
	for i := range s.zoneOwner {
		s.zoneOwner[i] = -1
		s.warmOwner[i] = -1
	}
	for p := 0; p < 2; p++ {
		reg := h.Mem.Register(poolBytes, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
		s.pools[p] = rpcwire.NewPool(reg, cfg.BlockSize, cfg.BlocksPerClient, zones)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			s:       s,
			idx:     i,
			sig:     sim.NewSignal(h.Env),
			scratch: h.Mem.Register(cfg.BlockSize*scratchRing, memory.PageSize2M, memory.LocalWrite),
			buf:     make([]byte, cfg.BlockSize),
		}
		// Workers wake on writes into either pool.
		h.NIC.WatchRegion(s.pools[0].RKey(), w.sig)
		h.NIC.WatchRegion(s.pools[1].RKey(), w.sig)
		ws := srv.Scope(fmt.Sprintf("w%d", i))
		ws.CounterVar("sweeps", &w.Sweeps)
		ws.CounterVar("sleeps", &w.Sleeps)
		ws.CounterVar("served", &w.Served)
		s.workers = append(s.workers, w)
	}
	return s
}

// Snapshot returns a copy of the server counters.
func (s *Server) Snapshot() Stats { return s.Stats }

// Reset zeroes the server counters (per-worker and per-client counters
// included, so a measurement window starts clean everywhere).
func (s *Server) Reset() {
	s.Stats = Stats{}
	for _, w := range s.workers {
		w.Sweeps, w.Sleeps, w.Served = 0, 0, 0
	}
}

// Register installs a handler. Must precede Start.
func (s *Server) Register(id uint8, fn rpccore.Handler) { s.handlers[id] = fn }

// Start launches the worker threads, the scheduler, and the legacy-mode
// executor.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	for i, w := range s.workers {
		w := w
		s.Host.Spawn(fmt.Sprintf("scalerpc-w%d", i), w.run)
	}
	s.Host.Spawn("scalerpc-sched", s.runScheduler)
	s.Host.Spawn("scalerpc-legacy", s.runLegacy)
}

// processingPool returns the pool currently being served.
func (s *Server) processingPool() *rpcwire.Pool { return s.pools[s.procIdx] }

// warmupPool returns the pool being pre-filled for the next group.
func (s *Server) warmupPool() *rpcwire.Pool { return s.pools[s.procIdx^1] }

func (w *worker) run(t *host.Thread) {
	s := w.s
	for {
		n := w.sweep(t)
		if s.draining && w.drainAck != s.epoch {
			// Finish the pool (sweep returned the last finds), then park
			// until the scheduler completes the switch.
			w.drainAck = s.epoch
			s.drainCount++
			if s.drainCount == len(s.workers) {
				s.schedSig.Broadcast()
			}
			t.FlushWork()
			for s.draining {
				s.resumeSig.Wait(t.P)
			}
			continue
		}
		if n == 0 {
			w.Sleeps++
			t.WaitSignal(w.sig, s.Cfg.PollTimeout)
		}
	}
}

// WorkerDebug reports (sweeps, sleeps, served) summed over workers.
func (s *Server) WorkerDebug() (sweeps, sleeps, served uint64) {
	for _, w := range s.workers {
		sweeps += w.Sweeps
		sleeps += w.Sleeps
		served += w.Served
	}
	return
}

// sweep scans this worker's zones of the processing pool once.
func (w *worker) sweep(t *host.Thread) int {
	// Zones are striped across workers so all worker threads share the
	// group's load evenly.
	s := w.s
	w.Sweeps++
	pool := s.processingPool()
	served := 0
	// The scan touches one valid byte per owned slot; charging each touch
	// individually would cost a scheduler round trip per slot. Defer the
	// charges and settle them in bulk — at the doorbell when a request is
	// found, or absorbed into the worker's idle park for an empty sweep (the
	// lazy close leaves the residue pending for run's WaitSignal).
	t.BeginWork()
	defer t.EndWorkLazy()
	// Block-major scan, symmetric with the baselines (ScaleRPC's per-slice
	// QP set fits the NIC caches either way). Reserved (pinned) zones sit
	// past maxZones and always live in pool 0.
	pinnedPool := s.pools[0]
	for b := 0; b < s.Cfg.BlocksPerClient; b++ {
		for z := w.idx; z < s.Cfg.totalZones(); z += s.Cfg.Workers {
			owner := s.zoneOwner[z]
			if owner < 0 {
				continue
			}
			cs := s.clients[owner]
			if cs == nil {
				// The owner was evicted mid-slice; the zone is reassigned at
				// the next switch.
				continue
			}
			if cs.Pinned {
				pool = pinnedPool
			} else {
				pool = s.processingPool()
			}
			t.ReadMem(pool.ValidAddr(z, b), 1)
			block := pool.Block(z, b)
			if !rpcwire.Valid(block) {
				continue
			}
			payload, _, err := rpcwire.Decode(block)
			if err != nil {
				// Valid landed but the frame failed its CRC: corruption past
				// the NIC. Treat as loss — the client's retry re-delivers.
				s.rel.CRCDrops++
				rpcwire.Clear(block)
				t.WriteMem(pool.ValidAddr(z, b), 1)
				continue
			}
			// Snapshot the CRC-validated frame before yielding: ReadMem,
			// ParseCost and the handler all advance virtual time, and a
			// concurrent RDMA write (duplicate delivery, stale warmup
			// fetch) may overwrite the pool block under us.
			w.req = append(w.req[:0], payload...)
			t.ReadMem(pool.BlockAddr(z, b)+uint64(s.Cfg.BlockSize-rpcwire.TrailerSize-len(payload)),
				len(payload)+rpcwire.TrailerSize)
			t.Work(s.Cfg.ParseCost)
			hdr, body, herr := rpcwire.ParseHeader(w.req)
			if herr != nil || int(hdr.ClientID) != owner {
				// A late write from a previous occupant of this zone: the
				// sender will retry after its context_switch_event.
				s.Stats.StaleDrops++
				rpcwire.Clear(block)
				t.WriteMem(pool.ValidAddr(z, b), 1)
				continue
			}
			s.serve(t, w, cs, b, hdr, body)
			rpcwire.Clear(block)
			t.WriteMem(pool.ValidAddr(z, b), 1)
			served++
			w.Served++
		}
	}
	return served
}

// serve executes one request (inline or via legacy mode) and responds.
// Duplicates — retries after a switch race, a timeout, or a reconnect —
// are answered from the reply cache without re-running the handler
// (at-most-once execution, §3.5 upgraded to exactly-once results).
func (s *Server) serve(t *host.Thread, w *worker, cs *clientState, slot int, hdr rpcwire.Header, body []byte) {
	if s.replayed(t, w.scratch, &w.scratchIdx, w.buf, cs, slot, hdr, 0) {
		return
	}
	s.Stats.Served++
	if cs.Pinned {
		s.Stats.PinnedServed++
	}
	cs.served++
	cs.bytes += uint64(len(body))
	if !cs.Pinned {
		s.groupServed++
	}
	s.usefulNs += uint64(s.Cfg.ParseCost)
	if s.handlers[hdr.Handler] == nil {
		s.replies.Commit(cs.ID, hdr.ReqID, nil, true)
		s.respond(t, w.scratch, &w.scratchIdx, cs, slot, hdr, w.buf, 0, rpcwire.FlagError)
		return
	}
	if s.legacy[hdr.Handler] {
		// Recorded long-running call type: hand to the legacy thread. The
		// reply-cache entry stays in-flight until it commits there.
		s.Stats.LegacyCalls++
		// Settle sweep charges before the hand-off: the legacy thread wakes
		// at the virtual time the request was actually parsed.
		t.FlushWork()
		s.legacyQ.Push(legacyJob{cs: cs, slot: slot, handler: hdr.Handler, reqID: hdr.ReqID,
			body: append([]byte(nil), body...)})
		return
	}
	// Settle deferred sweep charges around the handler so its measured
	// duration (which drives legacy-mode detection) reflects its own work.
	t.FlushWork()
	start := t.P.Now()
	n := s.handlers[hdr.Handler](t, cs.ID, body, w.buf[rpcwire.HeaderSize:len(w.buf)-rpcwire.TrailerSize])
	t.FlushWork()
	ran := t.P.Now() - start
	s.usefulNs += uint64(ran)
	s.handlerNs.Observe(uint64(ran))
	if ran > s.Cfg.LegacyThreshold && !s.legacy[hdr.Handler] {
		// Record this call type (§3.5); subsequent requests run in legacy
		// mode on a separate thread.
		s.legacy[hdr.Handler] = true
		s.Stats.LegacyMarked++
	}
	s.replies.Commit(cs.ID, hdr.ReqID, w.buf[rpcwire.HeaderSize:rpcwire.HeaderSize+n], false)
	s.respond(t, w.scratch, &w.scratchIdx, cs, slot, hdr, w.buf, n, 0)
}

// replayed reports whether the request is a duplicate, answering it from
// the reply cache with flags if its first copy has committed. One still
// executing (on the legacy thread) answers this duplicate too.
func (s *Server) replayed(t *host.Thread, scratch *memory.Region, idx *int, buf []byte, cs *clientState, slot int, hdr rpcwire.Header, flags byte) bool {
	dup, rep, ready := s.replies.Admit(cs.ID, hdr.ReqID)
	if !dup {
		return false
	}
	s.rel.DedupHits++
	if ready {
		if rep.Err {
			flags |= rpcwire.FlagError
		}
		n := copy(buf[rpcwire.HeaderSize:len(buf)-rpcwire.TrailerSize], rep.Payload)
		s.respond(t, scratch, idx, cs, slot, hdr, buf, n, flags)
	}
	return true
}

// runLegacy executes recorded long-running calls on a dedicated thread so
// they never straddle a context switch (§3.5).
func (s *Server) runLegacy(t *host.Thread) {
	scratch := s.Host.Mem.Register(s.Cfg.BlockSize*scratchRing, memory.PageSize2M, memory.LocalWrite)
	buf := make([]byte, s.Cfg.BlockSize)
	idx := 0
	for {
		job := s.legacyQ.Pop(t.P)
		n := s.handlers[job.handler](t, job.cs.ID, job.body, buf[rpcwire.HeaderSize:len(buf)-rpcwire.TrailerSize])
		hdr := rpcwire.Header{ReqID: job.reqID, Handler: job.handler}
		s.replies.Commit(job.cs.ID, job.reqID, buf[rpcwire.HeaderSize:rpcwire.HeaderSize+n], false)
		s.respond(t, scratch, &idx, job.cs, job.slot, hdr, buf, n, 0)
	}
}

// respond assembles a response in buf (whose first HeaderSize bytes it
// overwrites), encodes it into the caller's scratch ring, and RDMA-writes
// it to the client's response slot. The header's ClientID field carries the
// client's current zone and pool assignment — how a WARMUP client learns
// where to write directly — and during a drain the context_switch_event is
// piggybacked on every response (§3.3).
func (s *Server) respond(t *host.Thread, scratch *memory.Region, idx *int, cs *clientState, slot int, req rpcwire.Header, buf []byte, bodyLen int, flags byte) {
	// zoneNone tells the client this response carries no (valid) zone
	// assignment — e.g. a late-swept request answered after its group was
	// switched out.
	zoneInfo := zoneNone
	if cs.zone >= 0 {
		zoneInfo = uint16(cs.zone)
		if s.procIdx == 1 && !cs.Pinned {
			zoneInfo |= poolBit
		}
	}
	// Pinned clients are never switched out, so they never see the event.
	if s.draining && !cs.Pinned {
		flags |= rpcwire.FlagContextSwitch
		if cs.notifiedEpoch != s.epoch {
			cs.notifiedEpoch = s.epoch
			s.Stats.Piggybacked++
		}
	}
	rpcwire.PutHeader(buf, rpcwire.Header{ReqID: req.ReqID, Handler: req.Handler, ClientID: zoneInfo})
	msg := buf[:rpcwire.HeaderSize+bodyLen]
	blockOff := *idx * s.Cfg.BlockSize
	*idx = (*idx + 1) % scratchRing
	block := scratch.Bytes()[blockOff : blockOff+s.Cfg.BlockSize]
	if err := rpcwire.Encode(block, msg, flags); err != nil {
		return
	}
	off, span := rpcwire.EncodedSpan(s.Cfg.BlockSize, len(msg))
	t.WriteMem(scratch.Base+uint64(blockOff+off), span)
	wr := nic.SendWR{
		Op:    nic.OpWrite,
		LKey:  scratch.LKey,
		LAddr: scratch.Base + uint64(blockOff+off),
		Len:   span,
		RKey:  cs.respRKey,
		RAddr: cs.respAddr + uint64(slot*s.Cfg.BlockSize+off),
	}
	if span <= s.Host.NIC.Cfg.MaxInline {
		wr.Inline = true
	}
	t.PostSend(cs.QP, wr)
}

// readEndpointEntry decodes client cid's endpoint entry from server memory.
func (s *Server) readEndpointEntry(cid uint16) (count, round, span uint32) {
	b := s.endpoint.Bytes()[int(cid)*endpointEntrySize:]
	return binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])
}

// EndpointEntryAddr returns the address a client RDMA-writes its warmup
// tuple to.
func (s *Server) EndpointEntryAddr(cid uint16) uint64 {
	return s.endpoint.Base + uint64(cid)*endpointEntrySize
}

// EndpointRKey returns the endpoint table's rkey.
func (s *Server) EndpointRKey() uint32 { return s.endpoint.RKey }

var _ rpccore.Server = (*Server)(nil)
