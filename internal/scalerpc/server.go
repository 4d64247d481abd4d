package scalerpc

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/recycle"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// The endpoint entry is what a client in WARMUP RDMA-writes to the server
// (§3.3, Figure 6 step 2): its staged-request count and warmup round, then
// one uint16 per block holding that block's exact encoded span, 0 for a
// block whose request is answered or withdrawn. The scheduler READs the
// right-aligned tail of each non-zero span below the count (fetchGroup), so
// warmup traffic stays proportional to each message's size and answered
// holes are never fetched. Entries sit on a cache-line stride: at the
// default 16 blocks one client's entry is one line of the scheduler's
// per-tick read.
const (
	entryHeader = 8 // count, round
	entryLine   = 64
)

// entrySize is the endpoint entry of a client with blocks request blocks:
// 136 bytes at rpccore.ScratchRing blocks, under the NIC's inline limit.
func entrySize(blocks int) int { return entryHeader + 2*blocks }

// entryStride is entrySize rounded up to whole cache lines.
func entryStride(blocks int) int { return (entrySize(blocks) + entryLine - 1) / entryLine * entryLine }

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
	resp      rpccore.RespZone
	stageAddr uint64
	stageRKey uint32

	// Group/zone placement; group changes only at a slice boundary. zones
	// holds the client's zone in the processing and in the warmup pool, -1
	// where it has none (bind).
	group    int
	departed bool // left while listed in group: skipped until the boundary
	zones    [2]int

	// Warmup bookkeeping.
	lastRound   uint32
	fetchedUpTo int

	// The live edge of the client's zone (scanZone): advertised is the
	// staged count fetchGroup last read from its endpoint entry, seen one
	// past the highest block a sweep found valid since fetchGroup observed
	// the client's current round.
	advertised, seen int

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
	s   *Server
	idx int
	sig *sim.Signal
	// out stages the responses of the zone being swept; sweep posts them
	// as one chain when it leaves the zone.
	out rpccore.Outbox
	// req holds a stable snapshot of the frame being served
	// (rpccore.ReadSlot).
	req      []byte
	drainAck uint64
	Served   uint64
	Sweeps   uint64
	Sleeps   uint64
}

type legacyJob struct {
	cs   *clientState
	slot int
	hdr  rpcwire.Header
	body []byte
}

// Server is a ScaleRPC RPCServer.
type Server struct {
	Cfg   ServerConfig
	Host  *host.Host
	Stats Stats

	pools    [2]rpccore.ReqPool
	procIdx  int // pools[procIdx] is the processing pool
	endpoint *memory.Region
	entryBuf []byte // readEndpointEntry's copy of one entry

	handlers [256]rpccore.Handler
	legacy   [256]bool
	legacyQ  *sim.Queue[legacyJob]
	// bodies holds the legacy jobs' request copies: taken at the hand-off,
	// returned by the legacy thread once the handler and Commit are done.
	bodies recycle.Bufs

	clients []*clientState
	groups  [][]uint16
	cur     int // index of the group being served
	// What changed in the rotation since the last slice boundary, for
	// applyPending to carry out at the next: joiners in join order, clients
	// that departed while listed, and whether a demotion or restore moved a
	// listed client between partitions. The buffers are reused.
	joins, leaves []*clientState
	parted        bool

	// roster owns the identity lifecycle of control-plane clients and the
	// tenant gate's open/close pairing; mgr is the manager the server is
	// bound to (membership.go).
	roster *ctrlplane.Roster
	mgr    *ctrlplane.Manager

	// zoneMaps holds each pool's zone map, indexed like pools: the client
	// id bound to every zone (the context metadata of §3.3), -1 for none.
	zoneMaps [2][]int

	workers []*worker

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

	// Scheduler-owned response staging for the late sweep and explicit
	// notifications (schedOutbox); fetchWRs is fetchGroup's READ chain.
	schedOut rpccore.Outbox
	fetchWRs []nic.SendWR
	// schedReq is the late sweep's stable request snapshot (as worker.req).
	schedReq []byte

	// Telemetry: tel is this server's scope ("scalerpc", or "scalerpc#N"
	// for later instances on the same registry); trace is always non-nil.
	tel       telemetry.Scope
	trace     *telemetry.Trace
	handlerNs *stats.Histogram
	sliceNs   *stats.Histogram

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
	if cfg.BlocksPerClient > rpccore.ScratchRing {
		panic(fmt.Sprintf("scalerpc: BlocksPerClient %d exceeds the %d-block response staging ring", cfg.BlocksPerClient, rpccore.ScratchRing))
	}
	zones := cfg.totalZones()
	s := &Server{
		Cfg:       cfg,
		Host:      h,
		endpoint:  h.Mem.Register(entryStride(cfg.BlocksPerClient)*cfg.MaxClients, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite),
		entryBuf:  make([]byte, entrySize(cfg.BlocksPerClient)),
		legacyQ:   sim.NewQueue[legacyJob](h.Env),
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
	srv.CounterVar("warmup_bytes", &s.Stats.WarmupBytes)
	srv.CounterVar("notifies", &s.Stats.Notifies)
	srv.CounterVar("piggybacked", &s.Stats.Piggybacked)
	srv.CounterVar("stale_drops", &s.Stats.StaleDrops)
	srv.CounterVar("legacy_calls", &s.Stats.LegacyCalls)
	srv.CounterVar("legacy_marked", &s.Stats.LegacyMarked)
	srv.CounterVar("regroups", &s.Stats.Regroups)
	srv.CounterVar("served", &s.Stats.Served)
	srv.CounterVar("pinned_served", &s.Stats.PinnedServed)
	srv.CounterVar("late_served", &s.Stats.LateServed)
	srv.CounterVar("late_sweep_ns", &s.Stats.LateSweepNs)
	srv.CounterVar("sweep_probes", &s.Stats.SweepProbes)
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
	for p := range s.pools {
		s.zoneMaps[p] = make([]int, zones)
		for z := range zones {
			s.zoneMaps[p][z] = -1
		}
		s.pools[p] = rpccore.NewReqPool(h, cfg.BlocksPerClient, zones, cfg.ParseCost, s.rel)
	}
	var sigs []*sim.Signal
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{s: s, idx: i, sig: sim.NewSignal(h.Env), out: rpccore.NewOutbox(h)}
		ws := srv.Scope(fmt.Sprintf("w%d", i))
		ws.CounterVar("sweeps", &w.Sweeps)
		ws.CounterVar("sleeps", &w.Sleeps)
		ws.CounterVar("served", &w.Served)
		s.workers = append(s.workers, w)
		sigs = append(sigs, w.sig)
	}
	// A write into zone z of either pool wakes only worker z mod Workers,
	// the one whose sweep covers that zone.
	for _, pool := range s.pools {
		h.NIC.WatchZones(pool.RKey(), rpcwire.BlockSize*cfg.BlocksPerClient, sigs)
	}
	return s
}

// Snapshot returns a copy of the server counters.
func (s *Server) Snapshot() Stats { return s.Stats }

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
		s.Host.Spawn(fmt.Sprintf("scalerpc-w%d", i), w.run)
	}
	s.Host.Spawn("scalerpc-sched", s.runScheduler)
	s.Host.Spawn("scalerpc-legacy", s.runLegacy)
}

// processingPool returns the pool currently being served.
func (s *Server) processingPool() *rpccore.ReqPool { return &s.pools[s.procIdx] }

// warmupPool returns the pool being pre-filled for the next group.
func (s *Server) warmupPool() *rpccore.ReqPool { return &s.pools[s.procIdx^1] }

// The virtualized mapping (§3.3) is kept twice: each pool's zone map names
// the client bound to every zone, and each client's zones name its zone in
// either pool's role. Only bind and unbind write either. A switch swaps the
// two maps' roles by flipping procIdx.
const (
	processing = 0 // the role of the pool being served
	warming    = 1 // the role of the pool warming for the next group
)

// owners returns the zone map of the pool in role.
func (s *Server) owners(role int) []int { return s.zoneMaps[s.procIdx^role] }

// bind gives cs zone z of the pool in role, in the pool's map and in cs. A
// pinned client's reserved zone is bound in both maps, so it survives every
// switch.
func (s *Server) bind(cs *clientState, z, role int) {
	if cs.Pinned {
		s.owners(warming)[z] = int(cs.ID)
	}
	s.owners(role)[z], cs.zones[role] = int(cs.ID), z
}

// unbind clears a binding in the pool in role: zone z's owner when z >= 0,
// and cs's zone there when cs is non-nil. A switch clears what is left of
// the outgoing map by zone alone, and a departure clears only the
// processing map's copy of a reserved zone.
func (s *Server) unbind(cs *clientState, z, role int) {
	if z >= 0 {
		s.owners(role)[z] = -1
	}
	if cs != nil {
		cs.zones[role] = -1
	}
}

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
			t.WaitSignal(w.sig, pollTimeout)
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
	served := 0
	// The scan touches one valid byte per probed slot; charging each touch
	// individually would cost a scheduler round trip per slot. Defer the
	// charges and settle them in bulk — at the doorbell when a request is
	// found, or absorbed into the worker's idle park for an empty sweep (the
	// lazy close leaves the residue pending for run's WaitSignal).
	t.BeginWork()
	defer t.EndWorkLazy()
	// Reserved (pinned) zones sit past maxZones and always live in pool 0.
	for z := w.idx; z < s.Cfg.totalZones(); z += s.Cfg.Workers {
		owner := s.owners(processing)[z]
		if owner < 0 {
			continue
		}
		cs := s.clients[owner]
		if cs == nil {
			// The owner was evicted mid-slice; the zone is reassigned at
			// the next switch.
			continue
		}
		pool := s.processingPool()
		if cs.Pinned {
			pool = &s.pools[0]
		}
		served += s.scanZone(t, pool, z, cs, &w.out, &w.req, byWorker)
	}
	w.Served += uint64(served)
	return served
}

// scanZone is the one scan of a client's zone, for a worker sweeping the
// processing pool and for the late sweep answering the outgoing one:
// zone-major, so all of the client's pending requests are served, and their
// responses posted as one chain behind one doorbell, before the next
// client's. Posting the chain before returning puts every response on the
// wire before the sweep ends: the drain, notifiedEpoch and the switch flags
// keep their order on the client's QP. It returns how many of the client's
// own requests it served.
//
// The scan probes from block 0 up and stops at the client's live edge: below
// end = max(advertised, seen) it probes every block; at or past end it goes
// on while blocks are valid and stops at the first empty one. That is sound
// because a client fills its zone from the bottom and its writes land in
// order. stageRequest stages contiguous blocks from 0, and every endpoint
// entry advertises one past the highest busy slot, so every fetched block
// lies below a count the scheduler reads before it posts the READ (a
// completion or Cancel that lowers the count later leaves above it only
// frames already answered or withdrawn). A PROCESS send takes the lowest
// free slot, so when it writes block b every slot below b is busy: each of
// those requests was fetched (below advertised), or was written directly
// before b — and one client's RC WRITEs land in post order, so it has
// landed too, and is still valid or was consumed (below seen). A request that has landed past end thus sits
// only behind other requests that have also landed. A CRC-dropped frame had
// its Valid byte set and counts as seen, so a request behind it is served
// in the same scan. Bounding a zone by its own history (the blocks fetched
// into it since its last wipe) is not sound: a warm-up READ posted before a
// wipe may land after it, and a scan that stops at the empty block 0 leaves
// the client's requests for the next rotation, every rotation.
//
// Pinned zones are scanned whole: a pinned client never stages, so there is
// no advertised count, and after a readmission its retry layer re-posts
// busy slots in place into a fresh reserved zone, above empty blocks.
func (s *Server) scanZone(t *host.Thread, pool *rpccore.ReqPool, z int, cs *clientState, out *rpccore.Outbox, buf *[]byte, by executor) int {
	owner := int(cs.ID)
	end := max(cs.advertised, cs.seen)
	if cs.Pinned {
		end = s.Cfg.BlocksPerClient
	}
	served := 0
	for b := 0; b < s.Cfg.BlocksPerClient; b++ {
		// A worker's handler yields: a client evicted, or a zone handed
		// over, meanwhile is not served further.
		if by == byWorker && (s.owners(processing)[z] != owner || s.clients[owner] != cs) {
			break
		}
		s.Stats.SweepProbes++
		req, _, valid, ok := rpccore.ReadSlot(t, pool.Pool, s.rel, z, b, true, buf)
		if !valid {
			if b >= end {
				break
			}
			continue
		}
		cs.seen = max(cs.seen, b+1)
		if !ok {
			continue // counted and cleared as a CRC drop
		}
		// A worker charges the read and parse of every frame it takes; the
		// late sweep charges the read of its client's own frames only.
		if by == byWorker {
			pool.Parse(t, z, b, req)
		}
		hdr, body, herr := rpcwire.ParseHeader(req)
		if herr != nil || int(hdr.ClientID) != owner {
			// A late write from a previous occupant of this zone: the sender
			// will retry after its context_switch_event.
			s.Stats.StaleDrops++
		} else {
			if by == byLateSweep {
				off, span := rpcwire.EncodedSpan(rpcwire.BlockSize, len(req))
				t.ReadMem(pool.BlockAddr(z, b)+uint64(off), span)
			}
			s.execute(t, out, cs, b, hdr, body, by)
			served++
		}
		pool.Release(t, z, b)
	}
	out.Post(t, cs.QP)
	return served
}

// executor names the thread executing a request: a worker sweeping the
// processing pool, the scheduler's late sweep of the outgoing one, or the
// legacy thread running what a sweep handed it.
type executor uint8

const (
	byWorker executor = iota
	byLateSweep
	byLegacy
)

// execute runs one request, from the reply-cache admit to its response, on
// any of the three threads. A duplicate — a retry after a switch race, a
// timeout, or a reconnect — is answered from the reply cache without
// re-running the handler (at-most-once execution, §3.5 upgraded to
// exactly-once results); one whose first copy still executes (on the legacy
// thread) goes unanswered here. A recorded long-running call type is handed
// to the legacy thread (§3.5), where its cache entry commits.
//
// The late sweep differs from a worker in four things: every response it
// sends carries the switch flag, it takes no part in the slice's accounting,
// it marks no call type legacy, and it settles no deferred charges. The
// legacy thread's request was admitted and counted by the sweep that handed
// it over.
func (s *Server) execute(t *host.Thread, out *rpccore.Outbox, cs *clientState, slot int, hdr rpcwire.Header, body []byte, by executor) {
	var flags byte
	if by == byLateSweep {
		flags = rpcwire.FlagContextSwitch
	}
	res := out.Buf[rpcwire.HeaderSize : len(out.Buf)-rpcwire.TrailerSize] // the response body
	if by != byLegacy {
		if dup, rep, ready := s.replies.Admit(cs.ID, hdr.ReqID); dup {
			s.rel.DedupHits++
			if ready {
				if rep.Err {
					flags |= rpcwire.FlagError
				}
				s.respond(t, out, cs, slot, hdr, copy(res, rep.Payload), flags)
			}
			return
		}
		s.Stats.Served++
		if by == byLateSweep {
			s.Stats.LateServed++
		} else {
			if cs.Pinned {
				s.Stats.PinnedServed++
			} else {
				s.groupServed++
			}
			cs.served++
			cs.bytes += uint64(len(body))
			s.usefulNs += uint64(s.Cfg.ParseCost)
		}
		if s.handlers[hdr.Handler] == nil {
			s.replies.Commit(cs.ID, hdr.ReqID, nil, true)
			s.respond(t, out, cs, slot, hdr, 0, flags|rpcwire.FlagError)
			return
		}
		if s.legacy[hdr.Handler] {
			s.Stats.LegacyCalls++
			// A worker settles its sweep charges before the hand-off: the
			// legacy thread wakes at the virtual time the request was parsed.
			if by == byWorker {
				t.FlushWork()
			}
			s.legacyQ.Push(legacyJob{cs: cs, slot: slot, hdr: hdr, body: s.bodies.Clone(body)})
			return
		}
	}
	// A worker settles deferred sweep charges around the handler so its
	// measured duration, which drives legacy-mode detection, is its own work.
	if by == byWorker {
		t.FlushWork()
	}
	start := t.P.Now()
	n := s.handlers[hdr.Handler](t, cs.ID, body, res)
	if by == byWorker {
		t.FlushWork()
		ran := t.P.Now() - start
		s.usefulNs += uint64(ran)
		s.handlerNs.Record(int64(ran))
		if ran > s.Cfg.LegacyThreshold && !s.legacy[hdr.Handler] {
			// Record this call type (§3.5): its later requests run on the
			// legacy thread.
			s.legacy[hdr.Handler] = true
			s.Stats.LegacyMarked++
		}
	}
	s.replies.Commit(cs.ID, hdr.ReqID, res[:n], false)
	if by == byLegacy {
		s.bodies.Put(body)
	}
	s.respond(t, out, cs, slot, hdr, n, flags)
}

// runLegacy executes recorded long-running calls on a dedicated thread so
// they never straddle a context switch (§3.5).
func (s *Server) runLegacy(t *host.Thread) {
	out := rpccore.NewOutbox(s.Host)
	for {
		job := s.legacyQ.Pop(t.P)
		s.execute(t, &out, job.cs, job.slot, job.hdr, job.body, byLegacy)
		out.Post(t, job.cs.QP)
	}
}

// respond assembles a response in out.Buf (whose first HeaderSize bytes it
// overwrites, after bodyLen bytes of body) and chains its RDMA WRITE to the
// client's response slot; the caller posts the chain. The header's ClientID field carries the client's
// current zone and pool assignment — how a WARMUP client learns where to
// write directly — and during a drain the context_switch_event is
// piggybacked on every response (§3.3).
func (s *Server) respond(t *host.Thread, out *rpccore.Outbox, cs *clientState, slot int, req rpcwire.Header, bodyLen int, flags byte) {
	// zoneNone tells the client this response carries no (valid) zone
	// assignment — e.g. a late-swept request answered after its group was
	// switched out.
	zoneInfo := zoneNone
	if z := cs.zones[processing]; z >= 0 {
		zoneInfo = uint16(z)
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
	rpcwire.PutHeader(out.Buf, rpcwire.Header{ReqID: req.ReqID, Handler: req.Handler, ClientID: zoneInfo})
	out.Write(t, rpcwire.HeaderSize+bodyLen, flags, cs.resp, slot)
}

// readEndpointEntry decodes client cid's endpoint entry from server memory:
// spans holds one little-endian uint16 per block, valid until the next
// call. An entry may straddle a backing page, so it is copied out.
func (s *Server) readEndpointEntry(cid uint16) (count, round uint32, spans []byte) {
	b := s.entryBuf
	_, _ = s.endpoint.ReadAt(b, int64(int(cid)*entryStride(s.Cfg.BlocksPerClient))) // cid < MaxClients
	return binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), b[entryHeader:]
}

// entryAddr returns the address a client RDMA-writes its endpoint entry to.
func (s *Server) entryAddr(cid uint16) uint64 {
	return s.endpoint.Base + uint64(cid)*uint64(entryStride(s.Cfg.BlocksPerClient))
}

var _ rpccore.Server = (*Server)(nil)
