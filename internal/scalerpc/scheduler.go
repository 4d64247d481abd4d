package scalerpc

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// runScheduler is the priority-based scheduler (§3.2): it times the slices,
// warms the next group during each slice, and performs context switches.
// sliceFor bounds a slice from above; a slice ends before that when the
// server has sat idle on the active group while the next one's requests
// wait in the warmup pool (earlySwitch).
func (s *Server) runScheduler(t *host.Thread) {
	// What the context switch that began the current slice took, drain to
	// late sweep.
	var switchCost sim.Duration
	for {
		planned := s.sliceFor(s.cur) + s.phaseAdjust
		if planned < s.Cfg.TimeSlice/4 {
			planned = s.Cfg.TimeSlice / 4
		}
		s.phaseAdjust = 0
		start := t.P.Now()
		s.nextSwitch = start + planned
		s.warmFetched = 0
		s.sliceScale = 1
		from := s.tickCounters(start)
		r := tickReadings{workers: len(s.workers), lineRate: s.Host.NIC.LineRate(),
			timeSlice: s.Cfg.TimeSlice, switchCost: switchCost, synced: s.synced}
		for t.P.Now() < s.nextSwitch {
			s.assignWarm(t)
			s.fetchWarmups(t)
			remain := s.nextSwitch - t.P.Now()
			d := s.Cfg.WarmupPollInterval
			if d > remain {
				d = remain
			}
			if d > 0 {
				t.P.Sleep(d)
			}
			now := t.P.Now()
			if now >= s.nextSwitch {
				break // the budget ran out; nothing left to decide
			}
			to := s.tickCounters(now)
			r.read(from, to, s.warmFetched, now-start, len(s.groups))
			from = to
			if earlySwitch(r) {
				s.endEarly(now, start, planned, r)
				break
			}
			if r.quiet() {
				r.quietBefore++
			} else {
				r.quietBefore = 0
			}
		}
		ran := t.P.Now() - start
		s.sliceNs.Observe(uint64(ran))
		if len(s.groups) >= 2 {
			s.contextSwitch(t)
			switchCost = t.P.Now() - start - ran
		} else if len(s.groups) == 1 {
			s.soloScan(t)
		}
	}
}

// The early-switch rule's thresholds. Each conjunct is there because a
// prototype without it broke a workload the rotation exists for (parent
// 5b7171f, seed 1):
//
//   - earlyCPUFrac: ending a slice when the workers mostly sleep costs
//     echo_closed_400 12 % (each pool write wakes all ten workers and nine
//     find nothing), so idleness is parse + handler time, never sweeps;
//   - earlyLinkFrac: CPU alone halves bulk_getput_120, which is link-bound
//     at 0.99 utilisation with idle cores (2.48 -> 1.24 Mops/s);
//   - served < warmFetched: CPU and link alone halve closed-loop batch 1
//     (fig9 b1 7.47 -> 3.59, ext-latency 6.26 -> 2.47 Mops/s): that server
//     is idle because it is waiting on round trips, and it answers more per
//     tick than the warming group has queued;
//   - earlyQuietTicks, earlyMinSliceDiv: one quiet tick is the gap between a
//     drained backlog and the next burst; below TimeSlice/4 the switch
//     overhead and QPC refill dominate (Fig 11(a): 9.3 Mops/s at 100 us
//     falls to 6.6 at 30 us);
//   - earlySwitchCosts: TimeSlice/4 is that floor for a switch of ~19 us
//     (echo_open_256's median). Two groups of 70 thrash the 64-entry QPC
//     cache, a switch takes 25-75 us, and the closed loop behind it is
//     NIC-bound — cores, link and backlog all read idle. Without a floor
//     that follows the measured cost fig11b's GroupSize 70 cell fell
//     2.12 -> 1.47 Mops/s; with the slice held to twice the switch that
//     began it, 2.03, and echo_open_256's p99 moves 498 -> 503 us.
const (
	earlyCPUFrac     = 0.25
	earlyLinkFrac    = 0.25
	earlyQuietTicks  = 2
	earlyMinSliceDiv = 4
	earlySwitchCosts = 2
)

// endEarly books a slice that earlySwitch ended at now, short of its
// budget: what the slice served is scaled up to a full slice's worth when
// it settles, and the time cut joins the total that failure detection
// converts scans back into rotations with.
func (s *Server) endEarly(now, start sim.Time, planned sim.Duration, r tickReadings) {
	s.Stats.EarlySwitches++
	s.sliceScale = float64(planned) / float64(now-start)
	s.sliceCut += planned - (now - start)
	if s.trace.Enabled {
		s.trace.Emit(now, "early_switch",
			telemetry.A("cpu_permille", int64(r.cpuUtil()*1000)),
			telemetry.A("link_permille", int64(r.linkUtil()*1000)),
			telemetry.A("served", int64(r.served)),
			telemetry.A("warm_fetched", int64(r.warmFetched)))
	}
}

// tickCounters is one reading of the cumulative counters a tick is the
// difference of.
type tickCounters struct {
	at       sim.Time
	usefulNs uint64
	served   uint64
	tx, rx   uint64
}

func (s *Server) tickCounters(now sim.Time) tickCounters {
	tx, rx := s.Host.NIC.PortBytes()
	return tickCounters{at: now, usefulNs: s.usefulNs, served: s.groupServed, tx: tx, rx: rx}
}

// tickReadings is what the scheduler knows at the end of one
// WarmupPollInterval tick: enough to decide, as a pure function, whether the
// slice should end now.
type tickReadings struct {
	tick        sim.Duration // length of the tick the readings cover
	usefulNs    uint64       // parse + handler time of the requests served in it
	workers     int
	txBytes     uint64 // server port, wire headers included
	rxBytes     uint64
	lineRate    float64 // bytes per ns per direction
	served      uint64  // requests served for the active group in the tick
	warmFetched uint64  // requests fetched for the warming group this slice
	quietBefore int     // consecutive quiet ticks before this one
	sliceAge    sim.Duration
	timeSlice   sim.Duration
	switchCost  sim.Duration // what the switch that began the slice took
	groups      int
	synced      bool // the server is in a SyncGroup
}

func (r *tickReadings) read(from, to tickCounters, warmFetched uint64, age sim.Duration, groups int) {
	r.tick = to.at - from.at
	r.usefulNs = to.usefulNs - from.usefulNs
	r.txBytes, r.rxBytes = to.tx-from.tx, to.rx-from.rx
	r.served = to.served - from.served
	r.warmFetched = warmFetched
	r.sliceAge = age
	r.groups = groups
}

// cpuUtil is the share of the workers' tick spent parsing and handling.
func (r tickReadings) cpuUtil() float64 {
	return float64(r.usefulNs) / (float64(r.workers) * float64(r.tick))
}

// linkUtil is the busier direction of the server port against line rate.
func (r tickReadings) linkUtil() float64 {
	b := r.txBytes
	if r.rxBytes > b {
		b = r.rxBytes
	}
	return float64(b) / (r.lineRate * float64(r.tick))
}

// quiet reports a tick in which the server sat idle on the active group —
// cores and link both under a quarter used — while the warming group had
// more fetched than the active group got served.
func (r tickReadings) quiet() bool {
	return r.tick > 0 && r.warmFetched > 0 && r.served < r.warmFetched &&
		r.cpuUtil() < earlyCPUFrac && r.linkUtil() < earlyLinkFrac
}

// earlySwitch decides whether the slice ends at this tick: the rotation has
// somewhere to go and no peer to keep pace with, the slice has run its
// floor, and this tick and the one before it were quiet.
func earlySwitch(r tickReadings) bool {
	return r.groups >= 2 && !r.synced &&
		r.sliceAge >= r.timeSlice/earlyMinSliceDiv && r.sliceAge >= earlySwitchCosts*r.switchCost &&
		r.quietBefore+1 >= earlyQuietTicks && r.quiet()
}

// switchScratch is the working memory of the switch path. The scheduler is
// one thread, so each buffer only has to survive that thread's own yields
// within the one call that fills it; steady-state ticks and switches
// allocate nothing.
type switchScratch struct {
	// members snapshots a group's membership across yields — for fetchGroup,
	// or for the outgoing group of a switch; never both at once.
	members []uint16
	owners  []int    // the outgoing pool's zone map, until the late sweep
	evict   []uint16 // scanFailures' verdicts, until they are disconnected
	// The grouping policy's snapshot and plan, each acted on before the
	// gathering thread yields, so admitting threads share them too.
	snap, plan rotation
	// regroup's group list, swapped with Server.groups: each generation
	// reuses the backing arrays of the one before last.
	groups [][]uint16
}

// soloScan keeps failure detection alive when a single group means no
// context switches ever run: dead members must still be probed and evicted
// at slice boundaries, or a crashed client would hold its zone forever.
// The slice window settles through the same settleSlice path as a real
// switch — it used to reset served/bytes inline, which zeroed per-tenant
// byte attribution before anything could sample it.
func (s *Server) soloScan(t *host.Thread) {
	out := append(s.scratch.members[:0], s.groups[0]...)
	s.scratch.members = out
	evict := s.scanFailures(t, out)
	s.settleSlice(out)
	s.evictClients(t, evict)
}

// evictClients disconnects the clients a failure scan found dead.
func (s *Server) evictClients(t *host.Thread, ids []uint16) {
	for _, cid := range ids {
		s.Stats.Evictions++
		if s.trace.Enabled {
			s.trace.Emit(t.P.Now(), "client_evicted", telemetry.A("client", int64(cid)))
		}
		s.Disconnect(cid)
	}
}

// policy is this server's grouping policy (group.go).
func (s *Server) policy() policy {
	return policy{size: s.Cfg.GroupSize, dynamic: s.Cfg.Dynamic, classed: s.tenantAuth != nil}
}

// snapshot gathers what the grouping policy reads of the grouped clients.
// Pinned, parked and quarantined clients are in no group, so no plan can
// sweep a departed identity (a dead QP) back into the rotation.
func (s *Server) snapshot() rotation {
	r := rotation{members: s.scratch.snap.members[:0], ends: s.scratch.snap.ends[:0]}
	for _, grp := range s.groups {
		for _, cid := range grp {
			r.members = append(r.members, s.member(s.clients[cid]))
		}
		r.ends = append(r.ends, len(r.members))
	}
	s.scratch.snap = r
	return r
}

// member is what the grouping policy reads of one client.
func (s *Server) member(cs *clientState) member {
	m := member{id: cs.ID, prio: cs.priority}
	if s.tenantAuth != nil {
		m.part = s.tenantAuth.GroupClass(cs.Tenant) << 1
		m.weight = s.tenantAuth.SliceWeight(cs.Tenant)
	}
	if cs.demoted {
		m.part |= 1
	}
	return m
}

// sliceFor returns the slice budget for group g: the longest its slice may
// run (runScheduler ends it sooner when the server idles on it).
func (s *Server) sliceFor(g int) sim.Duration {
	return sim.Duration(float64(s.Cfg.TimeSlice) * s.policy().budget(s.snapshot(), g))
}

// assignWarm gives each member of the warming group its zone in the warmup
// pool (the virtualized mapping's context metadata, §3.3). A zone is wiped
// when it is (re)bound: the fetches for the new binding only start after
// this, so anything still valid in the zone was fetched for an earlier
// occupant or an earlier round — and a frame that lingers past the reply
// cache's dedup horizon (a pool dropping out of rotation when groups
// collapse, a zone unbound by a mid-slice demotion) re-executes when the
// zone rotates back in, breaking at-most-once.
func (s *Server) assignWarm(t *host.Thread) {
	if len(s.groups) == 0 {
		return
	}
	if len(s.groups) < 2 {
		// Single group: the processing pool doubles as the warmup target
		// (clients still bootstrap through WARMUP, there is just no
		// switching), its zones assigned directly.
		for i, cid := range s.groups[s.cur] {
			cs := s.clients[cid]
			if cs.zone != i {
				cs.zone = i
				s.zoneOwner[i] = int(cid)
				s.wipeZone(t, s.processingPool(), i)
			}
		}
		return
	}
	for i, cid := range s.groups[(s.cur+1)%len(s.groups)] {
		cs := s.clients[cid]
		if cs.warmZone != i {
			cs.warmZone = i
			s.warmOwner[i] = int(cid)
			s.wipeZone(t, s.warmupPool(), i)
		}
		// Re-stamped every pass, not just on rebind: promotion trusts the
		// zone only if this slice's scheduler loop asserted the binding.
		s.warmEpoch[i] = s.epoch
	}
}

// wipeZone invalidates every block of one pool zone (stale frames from a
// previous binding; see assignWarm).
func (s *Server) wipeZone(t *host.Thread, pool *rpcwire.Pool, z int) {
	for b := 0; b < s.Cfg.BlocksPerClient; b++ {
		block := pool.Block(z, b)
		if rpcwire.Valid(block) {
			rpcwire.Clear(block)
			t.WriteMem(pool.ValidAddr(z, b), 1)
		}
	}
}

// fetchWarmups scans endpoint entries and prefetches newly staged requests
// with one-sided RDMA READs (§3.3, Figure 6 step 4). Two groups are
// polled: the warming group (fetched into the warmup pool, ready at the
// next switch) and the current group (fetched straight into the
// processing pool — a member that went IDLE and staged a fresh batch
// mid-slice is served within its own slice).
func (s *Server) fetchWarmups(t *host.Thread) {
	if len(s.groups) == 0 {
		return
	}
	s.fetchGroup(t, s.cur, false)
	if len(s.groups) >= 2 {
		s.fetchGroup(t, (s.cur+1)%len(s.groups), true)
	}
}

// fetchGroup prefetches group g's staged requests: the warming group's into
// the warmup pool, the current group's into the processing pool.
func (s *Server) fetchGroup(t *host.Thread, g int, warm bool) {
	pool := s.processingPool()
	if warm {
		pool = s.warmupPool()
	}
	// Snapshot the membership: the READs below yield, and a client may
	// disconnect (shrinking the live group slice in place) while this
	// thread is blocked — iterating the live slice would then read a
	// stale id past the new length. Members that depart mid-fetch show
	// up as nil client states and are skipped. The snapshot only has to
	// outlive this call, so it lives in scheduler-owned scratch.
	grp := append(s.scratch.members[:0], s.groups[g]...)
	s.scratch.members = grp
	for _, cid := range grp {
		cs := s.clients[cid]
		if cs == nil {
			continue
		}
		zone := cs.zone
		if warm {
			zone = cs.warmZone
		}
		if zone < 0 {
			continue
		}
		t.ReadMem(s.EndpointEntryAddr(cid), endpointEntrySize)
		count32, round, span32 := s.readEndpointEntry(cid)
		count := int(count32)
		if count > s.Cfg.BlocksPerClient {
			count = s.Cfg.BlocksPerClient
		}
		if round != cs.lastRound {
			cs.lastRound = round
			cs.fetchedUpTo = 0
		}
		if count <= cs.fetchedUpTo {
			continue
		}
		span := int(span32)
		if span <= 0 || span > s.Cfg.BlockSize {
			span = s.Cfg.BlockSize
		}
		if s.trace.Enabled {
			s.trace.Emit(t.P.Now(), "warmup_fetch",
				telemetry.A("client", int64(cid)), telemetry.A("blocks", int64(count-cs.fetchedUpTo)))
		}
		// Small messages: one READ per block, of its right-aligned tail only.
		// Large ones: one contiguous READ of whole blocks.
		off, step := s.Cfg.BlockSize-span, 1
		if span >= s.Cfg.BlockSize/2 {
			step = count - cs.fetchedUpTo
			off, span = 0, step*s.Cfg.BlockSize
		}
		ok := true
		for b := cs.fetchedUpTo; b < count; b += step {
			wr := nic.SendWR{
				Op:    nic.OpRead,
				LKey:  pool.Region.LKey,
				LAddr: pool.BlockAddr(zone, b) + uint64(off),
				Len:   span,
				RKey:  cs.stageRKey,
				RAddr: cs.stageAddr + uint64(b*s.Cfg.BlockSize+off),
			}
			if err := t.PostSend(cs.QP, wr); err != nil {
				ok = false
				break
			}
			s.Stats.WarmupReads++
			if warm {
				s.warmFetched += uint64(step)
			}
		}
		if ok {
			cs.fetchedUpTo = count
		}
	}
}

// contextSwitch drains the workers, notifies the outgoing group, swaps the
// pools, promotes the warmed group, and rebuilds groups if needed (§3.3
// "Context Switch").
func (s *Server) contextSwitch(t *host.Thread) {
	s.epoch++
	s.draining = true
	s.drainCount = 0
	for _, w := range s.workers {
		w.sig.Broadcast()
	}
	for s.drainCount < len(s.workers) {
		s.schedSig.Wait(t.P)
	}

	// Remember the outgoing pool's zone map: writes that raced the switch
	// are answered from it by the late sweep below.
	oldPool := s.processingPool()
	oldOwners := append(s.scratch.owners[:0], s.zoneOwner[:s.Cfg.maxZones()]...)
	s.scratch.owners = oldOwners

	// Outgoing group: zones revoked; members whose drain responses did not
	// carry the event get an explicit context_switch_event write.
	out := append(s.scratch.members[:0], s.groups[s.cur]...)
	s.scratch.members = out
	for _, cid := range out {
		cs := s.clients[cid]
		if cs == nil {
			continue
		}
		cs.zone = -1
		if cs.notifiedEpoch != s.epoch {
			s.notifyControl(t, cs)
			s.Stats.Notifies++
		}
	}
	// Failure detection reads cs.served, so it must precede settleSlice
	// (which samples tenant attribution and then zeroes the slice window).
	evict := s.scanFailures(t, out)
	s.settleSlice(out)

	// Promote the warmed group.
	s.cur = (s.cur + 1) % len(s.groups)
	s.procIdx ^= 1
	s.zoneOwner, s.warmOwner = s.warmOwner, s.zoneOwner
	// Reserved (pinned) zones past maxZones keep their owners forever.
	for i := 0; i < s.Cfg.maxZones(); i++ {
		s.warmOwner[i] = -1
	}
	for i, cid := range s.groups[s.cur] {
		cs := s.clients[cid]
		cs.zone = i
		cs.warmZone = -1
		s.zoneOwner[i] = int(cid)
		// Trust the warmed frames only if the binding was asserted during
		// the slice that just ended (epoch was incremented above). A pool
		// that sat out of rotation — the cluster fell back to a single
		// group, or this zone was simply never warmed — holds frames from
		// retired rounds; serving those would duplicate executions the
		// reply cache rotated out long ago.
		if s.warmEpoch[i]+1 != s.epoch {
			s.wipeZone(t, s.processingPool(), i)
		}
		s.warmEpoch[i] = 0
	}
	s.Stats.Switches++
	if s.trace.Enabled {
		s.trace.Emit(t.P.Now(), "context_switch",
			telemetry.A("epoch", int64(s.epoch)), telemetry.A("group", int64(s.cur)))
	}
	s.draining = false
	s.resumeSig.Broadcast()

	// Evictions happen after the promotion so group/zone bookkeeping is
	// settled; a forced regroup then redistributes the survivors.
	s.evictClients(t, evict)

	// A rebuild is due once per full rotation (so every group is served each
	// rotation regardless of priority), after an eviction, and after a
	// demotion or restore moved clients between partitions; the policy also
	// rebuilds whenever joins and leaves broke the lazy size bounds.
	due := s.cur == 0 || len(evict) > 0 || s.regroupDue
	s.regroupDue = false
	if next, ok := s.policy().plan(s.snapshot(), s.cur, due, s.scratch.plan); ok {
		s.regroup(next)
	}

	// Guard window before the old processing pool is reused for warmup:
	// covers writes already in flight from just-notified clients. The late
	// sweep then answers any such stragglers (with the switch event set),
	// so clients almost never need the retry path.
	if s.Cfg.SwitchGuard > 0 {
		t.P.Sleep(s.Cfg.SwitchGuard)
	}
	s.lateSweep(t, oldPool, oldOwners)
}

// lateSweep serves requests that landed in the outgoing pool between the
// workers' drain and the clients' receipt of the context_switch_event
// ("process and clear the suspended requests", §3.3).
func (s *Server) lateSweep(t *host.Thread, pool *rpcwire.Pool, owners []int) {
	s.schedStaging()
	for z, owner := range owners {
		if owner < 0 || s.clients[owner] == nil {
			continue
		}
		cs := s.clients[owner]
		for b := 0; b < s.Cfg.BlocksPerClient; b++ {
			t.ReadMem(pool.ValidAddr(z, b), 1)
			block := pool.Block(z, b)
			if !rpcwire.Valid(block) {
				continue
			}
			payload, _, err := rpcwire.Decode(block)
			if err == nil {
				// Same aliasing hazard as the worker sweep: snapshot the
				// validated frame before ReadMem/handler yields let an
				// in-flight write overwrite the pool block.
				s.schedReq = append(s.schedReq[:0], payload...)
				if hdr, body, herr := rpcwire.ParseHeader(s.schedReq); herr == nil && int(hdr.ClientID) == owner {
					t.ReadMem(pool.BlockAddr(z, b), len(payload)+rpcwire.TrailerSize)
					s.lateServe(t, cs, b, hdr, body)
				} else {
					s.Stats.StaleDrops++
				}
			} else {
				s.rel.CRCDrops++
			}
			rpcwire.Clear(block)
			t.WriteMem(pool.ValidAddr(z, b), 1)
		}
	}
}

// lateServe executes one late-swept request on the scheduler thread,
// with the same dedup gate as the worker path: a request the workers
// already executed before the switch is answered from cache, not re-run.
func (s *Server) lateServe(t *host.Thread, cs *clientState, slot int, hdr rpcwire.Header, body []byte) {
	if s.replayed(t, s.schedScratch, &s.schedScratchIdx, s.schedBuf, cs, slot, hdr, rpcwire.FlagContextSwitch) {
		return
	}
	s.Stats.LateServed++
	s.Stats.Served++
	switch {
	case s.handlers[hdr.Handler] == nil:
		s.replies.Commit(cs.ID, hdr.ReqID, nil, true)
		s.respond(t, s.schedScratch, &s.schedScratchIdx, cs, slot, hdr, s.schedBuf, 0, rpcwire.FlagError|rpcwire.FlagContextSwitch)
	case s.legacy[hdr.Handler]:
		// Long-running call types go to the legacy thread, never onto the
		// scheduler's critical path (the cache entry commits there).
		s.Stats.LegacyCalls++
		s.legacyQ.Push(legacyJob{cs: cs, slot: slot, handler: hdr.Handler, reqID: hdr.ReqID,
			body: append([]byte(nil), body...)})
	default:
		n := s.handlers[hdr.Handler](t, cs.ID, body, s.schedBuf[rpcwire.HeaderSize:len(s.schedBuf)-rpcwire.TrailerSize])
		s.replies.Commit(cs.ID, hdr.ReqID, s.schedBuf[rpcwire.HeaderSize:rpcwire.HeaderSize+n], false)
		s.respond(t, s.schedScratch, &s.schedScratchIdx, cs, slot, hdr, s.schedBuf, n, rpcwire.FlagContextSwitch)
	}
}

// notifyControl sends an explicit context_switch_event to a client with no
// in-flight responses to piggyback on: a small RDMA write into the client's
// control block (§3.3).
func (s *Server) notifyControl(t *host.Thread, cs *clientState) {
	staging := s.schedStaging() // before s.schedBuf is read
	hdr := rpcwire.Header{ReqID: ^uint64(0), Handler: 0}
	s.respond(t, staging, &s.schedScratchIdx, cs, s.Cfg.BlocksPerClient, hdr, s.schedBuf, 0, rpcwire.FlagContextSwitch)
	cs.notifiedEpoch = s.epoch
}

// schedStaging returns the scheduler's response staging ring, registering
// it on first use. Registering it any earlier would move every region
// registered after it to another address, and so to another LLC set.
func (s *Server) schedStaging() *memory.Region {
	if s.schedScratch == nil {
		s.schedScratch = s.Host.Mem.Register(s.Cfg.BlockSize*scratchRing, memory.PageSize2M, memory.LocalWrite)
		s.schedBuf = make([]byte, s.Cfg.BlockSize)
	}
	return s.schedScratch
}

// scanFailures inspects the outgoing group for dead clients: members whose
// QP already sits in the error state (their NIC stopped acknowledging —
// crashed node, downed link, invalidated response region) are returned for
// eviction, and members who went Cfg.Failure.ProbeSlices slices of their own
// without a single served request get a liveness probe — a 0-byte
// unsignaled RC write to the response region that either lands invisibly
// (the client is merely idle) or exhausts the RC retry budget and errors
// the QP before the group's next slice, so the eviction completes one
// rotation later.
//
// Silence is measured in rotations of the clock-driven schedule, not in
// scans: a slice may end early, so a group can come round several times in
// the span one rotation used to take, and an idle client must not be probed
// that many times as often. A scan therefore counts for the share of a
// full rotation it covers — the time since the client's previous scan over
// that time plus whatever early switches cut from the slices in between
// (exactly 1 when none did) — and a probe spends one rotation of the
// silence built up.
func (s *Server) scanFailures(t *host.Thread, out []uint16) []uint16 {
	evict := s.scratch.evict[:0]
	now := t.P.Now()
	for _, cid := range out {
		cs := s.clients[cid]
		if cs == nil {
			continue
		}
		if cs.QP.Err() != nil {
			evict = append(evict, cid)
			continue
		}
		// A client's first scan stands for the rotation it waited through.
		share := 1.0
		if ran := now - cs.scannedAt; cs.scannedAt > 0 && ran > 0 {
			share = float64(ran) / float64(ran+s.sliceCut-cs.scannedCut)
		}
		cs.scannedAt, cs.scannedCut = now, s.sliceCut
		if cs.served > 0 {
			cs.missedSlices = 0
			continue
		}
		cs.missedSlices += share
		if n := s.Cfg.Failure.ProbeSlices; !cs.demoted && n > 0 && cs.missedSlices >= float64(n) {
			cs.missedSlices--
			s.Stats.Probes++
			t.PostSend(cs.QP, nic.SendWR{Op: nic.OpWrite, RKey: cs.respRKey, RAddr: cs.respAddr})
		}
	}
	s.scratch.evict = evict
	return evict
}

// settleSlice closes one slice's accounting window for the given members:
// per-tenant byte attribution is sampled first, then each outgoing
// client's priority P_i = T_i / S_i folds in the observations (§3.2), and
// only then does the window reset (sliceScale is 1, and the arithmetic
// exact, for a slice that ran its budget). Both switch paths (contextSwitch
// and soloScan) must come through here — resetting served/bytes anywhere
// else silently destroys the attribution the fair scheduler depends on.
func (s *Server) settleSlice(group []uint16) {
	for _, cid := range group {
		cs := s.clients[cid]
		if cs == nil {
			continue
		}
		if s.tenantAuth != nil && (cs.served > 0 || cs.bytes > 0) {
			s.tenantAuth.SliceAccount(cs.Tenant, cs.served, cs.bytes)
		}
		avgSize := 1.0
		if cs.served > 0 {
			avgSize = float64(cs.bytes) / float64(cs.served)
			if avgSize < 1 {
				avgSize = 1
			}
		}
		// The sample is a rate per full slice: what a slice that ended early
		// served is scaled up to the length it was budgeted.
		inst := float64(cs.served) / avgSize * s.sliceScale
		cs.priority = 0.7*cs.priority + 0.3*inst
		cs.served = 0
		cs.bytes = 0
	}
	s.settlePinned()
}

// regroup installs the policy's plan as the group list, its first group the
// one being served. A plan that changed no group's size counts as a regroup
// only under the dynamic scheduler, which rebuilds every rotation anyway.
func (s *Server) regroup(next rotation) {
	s.scratch.plan = next
	changed := next.groups() != len(s.groups)
	groups := s.scratch.groups[:0]
	for i := 0; i < next.groups(); i++ {
		var ids []uint16
		if i < cap(groups) {
			ids = groups[:i+1][i][:0]
		}
		for _, m := range next.group(i) {
			ids = append(ids, m.id)
			s.clients[m.id].group = i
		}
		changed = changed || len(ids) != len(s.groups[i])
		groups = append(groups, ids)
	}
	s.scratch.groups, s.groups = s.groups, groups
	s.cur = 0
	if changed || s.Cfg.Dynamic {
		s.Stats.Regroups++
	}
}

// Connect admits a new RPCClient: an RC QP pair, the client's staged and
// response regions, a group placement, and an endpoint entry slot.
func (s *Server) Connect(ch *host.Host, sig *sim.Signal) *Conn {
	return s.connect(ch, sig, false, 0)
}

// ConnectLatencySensitive admits a client onto a reserved zone: it is
// never grouped or context-switched, so its requests are served in every
// slice — the fine-grained, per-client sensitivity scheduling the paper
// sketches as future work (§3.6.2). It fails (returns nil) when all
// reserved zones are taken.
func (s *Server) ConnectLatencySensitive(ch *host.Host, sig *sim.Signal) *Conn {
	return s.connect(ch, sig, true, 0)
}

// connect builds the client's state and places it. The tenant must be
// known here, before place(): class-pure grouping reads the joining
// client's class, and a late tenant assignment would seed a mismatched
// singleton group per join — with regroup only running at rotation start,
// a large join wave would leave the rotation cycling one-member groups.
func (s *Server) connect(ch *host.Host, sig *sim.Signal, pinned bool, tenant uint16) *Conn {
	if len(s.clients) >= s.Cfg.MaxClients {
		panic("scalerpc: server full")
	}
	id := uint16(len(s.clients))
	sqp, cqp := s.dialRC(ch)
	conn := s.newConn(ch, sig)
	conn.id, conn.qp = id, cqp
	cs := s.newClient(ctrlplane.Member{ID: id, QP: sqp, Peer: -1, Tenant: tenant}, conn.joinPayload())
	if !s.placeJoined(cs, pinned) {
		s.clients = s.clients[:len(s.clients)-1]
		s.Host.NIC.DestroyQP(sqp)
		return nil
	}
	conn.adoptPlacement(cs.Pinned, cs.zone)
	// Only backdoor clients get per-client telemetry: their ids are never
	// reused, whereas a managed join may be handed a released id and the
	// registry panics on a duplicate name.
	cl := s.tel.Scope("client", fmt.Sprintf("%d", id))
	cl.GaugeVar("priority", &cs.priority)
	cl.CounterVar("retries", &conn.Retries)
	cl.CounterVar("switches", &conn.Switches)
	cl.CounterVar("reconnects", &conn.Reconnects)
	return conn
}

// dialRC builds the connected RC QP pair between this server and client
// host ch, each end on a fresh CQ.
func (s *Server) dialRC(ch *host.Host) (sqp, cqp *nic.QP) {
	scq := s.Host.NIC.CreateCQ()
	ccq := ch.NIC.CreateCQ()
	sqp = s.Host.NIC.CreateQP(nic.RC, scq, scq)
	cqp = ch.NIC.CreateQP(nic.RC, ccq, ccq)
	if err := nic.Connect(sqp, cqp); err != nil {
		panic(err)
	}
	return sqp, cqp
}

// newClient builds the server-side record of the client whose regions a
// join payload names and stores it under m.ID — the next id, or one the
// roster or an eviction emptied. The caller places it.
func (s *Server) newClient(m ctrlplane.Member, payload []byte) *clientState {
	cs := &clientState{
		Member:    m,
		respAddr:  binary.LittleEndian.Uint64(payload),
		respRKey:  binary.LittleEndian.Uint32(payload[8:]),
		stageAddr: binary.LittleEndian.Uint64(payload[12:]),
		stageRKey: binary.LittleEndian.Uint32(payload[20:]),
		group:     -1,
		zone:      -1,
		warmZone:  -1,
	}
	if int(m.ID) == len(s.clients) {
		s.clients = append(s.clients, cs)
	} else {
		s.clients[m.ID] = cs
	}
	return cs
}

// placeJoined puts a client into service: on a reserved zone when pinned,
// otherwise in a group. A pinned request with every reserved zone taken
// places nothing and reports false; Connect refuses such a client, every
// other admission path degrades it to the grouped path.
func (s *Server) placeJoined(cs *clientState, pinned bool) bool {
	cs.Pinned = pinned
	if !pinned {
		s.place(cs)
		return true
	}
	for z := s.Cfg.maxZones(); z < s.Cfg.totalZones(); z++ {
		// Both ownership arrays, which swap at every switch.
		if s.zoneOwner[z] < 0 && s.warmOwner[z] < 0 {
			s.zoneOwner[z], s.warmOwner[z] = int(cs.ID), int(cs.ID)
			cs.zone, cs.group = z, -1
			return true
		}
	}
	return false
}

// place puts a new client into the group the policy picks, or a fresh
// group at the rotation's end. It takes effect mid-slice: the client is
// served once its group next warms, or at the next tick when it is the only
// group.
func (s *Server) place(cs *clientState) {
	if g := s.policy().place(s.snapshot(), s.member(cs)); g >= 0 {
		s.groups[g] = append(s.groups[g], cs.ID)
		cs.group = g
		return
	}
	s.groups = append(s.groups, []uint16{cs.ID})
	cs.group = len(s.groups) - 1
	s.Stats.Regroups++
}

// Disconnect removes a client (log-out); groups merge lazily at the next
// switch if the departure violates the size bounds.
func (s *Server) Disconnect(id uint16) {
	if int(id) >= len(s.clients) {
		return
	}
	cs := s.clients[id]
	if cs == nil {
		return
	}
	s.roster.Uncharge(&cs.Member)
	s.unplace(cs)
	s.clients[id] = nil
	s.Host.NIC.DestroyQP(cs.QP)
}

// unplace removes a client from its group and releases its zone claims in
// both ownership arrays; in-flight slices are untouched (stale blocks from
// the departed client are dropped by the zone-owner check).
func (s *Server) unplace(cs *clientState) {
	if cs.group >= 0 {
		grp := s.groups[cs.group]
		for i, cid := range grp {
			if cid == cs.ID {
				s.groups[cs.group] = append(grp[:i], grp[i+1:]...)
				break
			}
		}
		cs.group = -1
	}
	if cs.zone >= 0 {
		s.zoneOwner[cs.zone] = -1
		cs.zone = -1
	}
	if cs.warmZone >= 0 {
		s.warmOwner[cs.warmZone] = -1
		cs.warmZone = -1
	}
}

// Reconnect re-admits an existing Conn whose QP failed (retry-count
// exceeded, remote access error, or the server evicted it while its link
// was down). Both ends get fresh QPs and CQs; the client keeps its identity
// and its staging/response regions, so requests still held in the staging
// area survive the reconnect and go back out through a fresh warmup round.
func (s *Server) Reconnect(c *Conn) {
	c.h.NIC.DestroyQP(c.qp)
	cs := s.clients[c.id]
	if cs != nil {
		s.Host.NIC.DestroyQP(cs.QP)
	}
	sqp, cqp := s.dialRC(c.h)
	if cs == nil {
		// Evicted while away: rejoin under the same id with the same
		// regions. The warmup round counter keeps increasing client-side,
		// so the fresh clientState's round mismatch makes the first
		// endpoint-entry fetch idempotent.
		cs = s.newClient(ctrlplane.Member{ID: c.id, QP: sqp, Peer: -1, Tenant: c.joinTenant}, c.joinPayload())
		if !s.placeJoined(cs, c.pinned) {
			s.placeJoined(cs, false)
		}
		s.roster.Charge(&cs.Member)
	} else {
		cs.QP = sqp
		cs.fetchedUpTo = 0
		cs.missedSlices, cs.scannedAt = 0, 0
	}
	c.qp = cqp
	s.Stats.Readmits++
	if s.trace.Enabled {
		s.trace.Emit(c.h.Env.Now(), "client_readmit", telemetry.A("client", int64(c.id)))
	}
}

// GroupCount returns the number of connection groups.
func (s *Server) GroupCount() int { return len(s.groups) }

// GroupSizes returns the current group cardinalities.
func (s *Server) GroupSizes() []int {
	var out []int
	for _, g := range s.groups {
		out = append(out, len(g))
	}
	return out
}

// NextSwitchAt exposes the scheduler's next planned switch time (used by
// global synchronization).
func (s *Server) NextSwitchAt() sim.Time { return s.nextSwitch }

// AdjustPhase shifts the next slice by delta (global synchronization).
func (s *Server) AdjustPhase(delta sim.Duration) { s.phaseAdjust += delta }
