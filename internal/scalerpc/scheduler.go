package scalerpc

import (
	"encoding/binary"
	"fmt"
	"slices"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// runScheduler is the priority-based scheduler (§3.2): it times the slices,
// warms the next group during each slice, and performs context switches.
// sliceFor bounds a slice from above; a slice ends before that when the
// server has sat idle on the active group while the next one's requests
// wait in the warmup pool (earlySwitch). The rotation changes only at slice
// boundaries (applyPending): the first pass, every switch and solo scan,
// and every tick while there is no group.
func (s *Server) runScheduler(t *host.Thread) {
	// What the context switch that began the current slice took, drain to
	// late sweep.
	var switchCost sim.Duration
	s.applyPending(t, nil, false)
	for {
		planned := max(s.sliceFor(s.cur)+s.phaseAdjust, s.Cfg.TimeSlice/4)
		s.phaseAdjust = 0
		start := t.P.Now()
		s.nextSwitch = start + planned
		s.warmFetched = 0
		s.sliceScale = 1
		from := s.tickCounters(start)
		r := tickReadings{workers: len(s.workers), lineRate: s.Host.NIC.LineRate(),
			timeSlice: s.Cfg.TimeSlice, switchCost: switchCost, synced: s.synced}
		for t.P.Now() < s.nextSwitch {
			if len(s.groups) == 0 {
				s.applyPending(t, nil, false)
			}
			s.assignWarm(t)
			s.fetchWarmups(t)
			if d := min(s.Cfg.WarmupPollInterval, s.nextSwitch-t.P.Now()); d > 0 {
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
		s.sliceNs.Record(int64(ran))
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
	return float64(max(r.txBytes, r.rxBytes)) / (r.lineRate * float64(r.tick))
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
	owners []int    // the outgoing pool's zone map, until the late sweep
	evict  []uint16 // scanFailures' verdicts, until they are disconnected
	// The grouping policy's snapshot and plan, each acted on before the
	// scheduler yields.
	snap, plan rotation
	// regroup's group list, swapped with Server.groups: each generation
	// reuses the backing arrays of the one before last.
	groups [][]uint16
}

// applyPending is the one place the rotation changes; between boundaries
// s.groups and every cs.group are read-only, so a walk over a group may
// yield without copying it. Departed clients leave the list, joiners are
// placed in join order, the failure scan's verdicts are evicted, and the
// policy plans, due when the rotation starts over, after an eviction or
// after a partition changed.
func (s *Server) applyPending(t *host.Thread, evict []uint16, rotationStart bool) {
	s.dropDeparted()
	for _, cs := range s.joins {
		// A joiner that left again, rejoined pinned, or was placed by an
		// earlier entry stays where it is.
		if s.clients[cs.ID] == cs && cs.group < 0 && !cs.Pinned && !cs.Parked && !cs.Limbo {
			s.place(cs)
		}
	}
	s.joins = s.joins[:0]
	for _, cid := range evict {
		s.Stats.Evictions++
		if s.trace.Enabled {
			s.trace.Emit(t.P.Now(), "client_evicted", telemetry.A("client", int64(cid)))
		}
		s.Disconnect(cid)
	}
	s.dropDeparted()
	due := rotationStart || len(evict) > 0 || s.parted
	s.parted = false
	if next, ok := s.policy().plan(s.snapshot(), s.cur, due, s.scratch.plan); ok {
		s.regroup(next)
	}
}

// dropDeparted takes the departed clients' ids out of the group list.
func (s *Server) dropDeparted() {
	for _, cs := range s.leaves {
		i := slices.Index(s.groups[cs.group], cs.ID)
		s.groups[cs.group] = slices.Delete(s.groups[cs.group], i, i+1)
		cs.group, cs.departed = -1, false
	}
	s.leaves = s.leaves[:0]
}

// inGroup returns the client listed under cid in group g, or nil once it
// has departed: its slot emptied, or its id reissued to a waiting joiner.
func (s *Server) inGroup(g int, cid uint16) *clientState {
	if cs := s.clients[cid]; cs != nil && cs.group == g && !cs.departed {
		return cs
	}
	return nil
}

// soloScan keeps failure detection alive when a single group means no
// context switches ever run: dead members must still be probed and evicted
// at slice boundaries, or a crashed client would hold its zone forever.
// The slice window settles through the same settleSlice path as a real
// switch — it used to reset served/bytes inline, which zeroed per-tenant
// byte attribution before anything could sample it.
func (s *Server) soloScan(t *host.Thread) {
	evict := s.scanFailures(t, 0)
	s.settleSlice(0)
	s.applyPending(t, evict, false)
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
	for g, grp := range s.groups {
		for _, cid := range grp {
			if cs := s.inGroup(g, cid); cs != nil {
				r.members = append(r.members, s.member(cs))
			}
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
// collapse, a zone its departed owner left behind) re-executes when the
// zone rotates back in, breaking at-most-once. Promotion undoes every warm
// binding and the list holds still within a slice, so each member a switch
// promotes was bound, its zone wiped, during the slice that switch ends.
func (s *Server) assignWarm(t *host.Thread) {
	if len(s.groups) == 0 {
		return
	}
	if len(s.groups) < 2 {
		// Single group: the processing pool doubles as the warmup target
		// (clients still bootstrap through WARMUP, there is just no
		// switching), its zones assigned directly. No switch ever tells a
		// client to restage, so a member keeps its zone for as long as it
		// is listed, and a joiner takes the lowest free zone: with no
		// departures, zone = join order.
		free := 0
		for _, cid := range s.groups[s.cur] {
			cs := s.inGroup(s.cur, cid)
			if cs == nil || cs.zones[processing] >= 0 {
				continue
			}
			for s.owners(processing)[free] >= 0 {
				free++
			}
			s.bind(cs, free, processing)
			s.wipeZone(t, s.processingPool(), free)
		}
		return
	}
	g := (s.cur + 1) % len(s.groups)
	for i, cid := range s.groups[g] {
		if cs := s.inGroup(g, cid); cs != nil && cs.zones[warming] != i {
			s.bind(cs, i, warming)
			s.wipeZone(t, s.warmupPool(), i)
		}
	}
}

// wipeZone invalidates every block of one pool zone (stale frames from a
// previous binding; see assignWarm).
func (s *Server) wipeZone(t *host.Thread, pool *rpccore.ReqPool, z int) {
	for b := 0; b < s.Cfg.BlocksPerClient; b++ {
		if pool.Valid(z, b) {
			pool.Release(t, z, b)
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
	s.fetchGroup(t, s.cur, processing)
	if len(s.groups) >= 2 {
		s.fetchGroup(t, (s.cur+1)%len(s.groups), warming)
	}
}

// fetchGroup prefetches group g's staged requests into the pool in role:
// the warming group's into the warmup pool, the current group's into the
// processing pool.
func (s *Server) fetchGroup(t *host.Thread, g, role int) {
	pool := &s.pools[s.procIdx^role]
	// The READs below yield; the group list holds still until the next
	// boundary, and a member that departs meanwhile is skipped from then on.
	for _, cid := range s.groups[g] {
		cs := s.inGroup(g, cid)
		if cs == nil || cs.zones[role] < 0 {
			continue
		}
		zone := cs.zones[role]
		t.ReadMem(s.entryAddr(cid), entrySize(s.Cfg.BlocksPerClient))
		count32, round, spans := s.readEndpointEntry(cid)
		count := min(int(count32), s.Cfg.BlocksPerClient)
		if round != cs.lastRound {
			cs.lastRound, cs.fetchedUpTo, cs.seen = round, 0, 0
		}
		cs.advertised = count
		if count <= cs.fetchedUpTo {
			continue
		}
		// One READ per staged block, of the right-aligned tail its entry
		// span names, at every size; a block of span 0 holds no unanswered
		// request and is skipped. The client's READs go out as one chain
		// behind one doorbell.
		wrs := s.fetchWRs[:0]
		for b := cs.fetchedUpTo; b < count; b++ {
			span := min(int(binary.LittleEndian.Uint16(spans[2*b:])), rpcwire.BlockSize)
			if span == 0 {
				continue
			}
			off := rpcwire.BlockSize - span
			wrs = append(wrs, nic.SendWR{
				Op:    nic.OpRead,
				LKey:  pool.Region.LKey,
				LAddr: pool.BlockAddr(zone, b) + uint64(off),
				Len:   span,
				RKey:  cs.stageRKey,
				RAddr: cs.stageAddr + uint64(b*rpcwire.BlockSize+off),
			})
		}
		s.fetchWRs = wrs
		var posted int
		var err error
		if len(wrs) > 0 {
			posted, err = t.PostSendBatch(cs.QP, wrs)
		}
		// A chain stops at its first bad WR: only its posted prefix counts.
		for _, wr := range wrs[:posted] {
			s.Stats.WarmupBytes += uint64(wr.Len)
		}
		s.Stats.WarmupReads += uint64(posted)
		if role == warming {
			s.warmFetched += uint64(posted)
		}
		if s.trace.Enabled && len(wrs) > 0 {
			s.trace.Emit(t.P.Now(), "warmup_fetch",
				telemetry.A("client", int64(cid)), telemetry.A("blocks", int64(posted)))
		}
		if err == nil {
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
	oldOwners := append(s.scratch.owners[:0], s.owners(processing)[:s.Cfg.maxZones()]...)
	s.scratch.owners = oldOwners

	// Outgoing group: zones revoked; members whose drain responses did not
	// carry the event get an explicit context_switch_event write.
	for _, cid := range s.groups[s.cur] {
		cs := s.inGroup(s.cur, cid)
		if cs == nil {
			continue
		}
		s.unbind(cs, cs.zones[processing], processing)
		if cs.notifiedEpoch != s.epoch {
			s.notifyControl(t, cs)
			s.Stats.Notifies++
		}
	}
	// Failure detection reads cs.served, so it must precede settleSlice
	// (which samples tenant attribution and then zeroes the slice window).
	evict := s.scanFailures(t, s.cur)
	s.settleSlice(s.cur)

	// Promote the warmed group.
	s.cur = (s.cur + 1) % len(s.groups)
	s.procIdx ^= 1
	// Reserved (pinned) zones past maxZones keep their owners forever.
	for z := range s.Cfg.maxZones() {
		s.unbind(nil, z, warming)
	}
	for i, cid := range s.groups[s.cur] {
		if cs := s.inGroup(s.cur, cid); cs != nil {
			s.unbind(cs, -1, warming)
			s.bind(cs, i, processing)
		}
	}
	s.Stats.Switches++
	if s.trace.Enabled {
		s.trace.Emit(t.P.Now(), "context_switch",
			telemetry.A("epoch", int64(s.epoch)), telemetry.A("group", int64(s.cur)))
	}
	s.draining = false
	s.resumeSig.Broadcast()

	// The boundary, now the promotion has settled group/zone bookkeeping. A
	// rebuild is due once per rotation, so every group is served in each.
	s.applyPending(t, evict, s.cur == 0)

	// Guard window before the old processing pool is reused for warmup:
	// covers writes already in flight from just-notified clients. The late
	// sweep then answers any such stragglers (with the switch event set),
	// so clients almost never need the retry path.
	t.P.Sleep(switchGuard)
	start := t.P.Now()
	s.lateSweep(t, oldPool, oldOwners)
	s.Stats.LateSweepNs += uint64(t.P.Now() - start)
}

// lateSweep serves requests that landed in the outgoing pool between the
// workers' drain and the clients' receipt of the context_switch_event
// ("process and clear the suspended requests", §3.3).
func (s *Server) lateSweep(t *host.Thread, pool *rpccore.ReqPool, owners []int) {
	out := s.schedOutbox()
	for z, owner := range owners {
		if owner >= 0 && s.clients[owner] != nil {
			s.scanZone(t, pool, z, s.clients[owner], out, &s.schedReq, byLateSweep)
		}
	}
}

// notifyControl sends an explicit context_switch_event to a client with no
// in-flight responses to piggyback on: a small RDMA write into the client's
// control block (§3.3).
func (s *Server) notifyControl(t *host.Thread, cs *clientState) {
	out := s.schedOutbox()
	hdr := rpcwire.Header{ReqID: ^uint64(0), Handler: 0}
	s.respond(t, out, cs, s.Cfg.BlocksPerClient, hdr, 0, rpcwire.FlagContextSwitch)
	out.Post(t, cs.QP)
	cs.notifiedEpoch = s.epoch
}

// schedOutbox returns the scheduler's response outbox, registering its
// staging ring on first use. Registering it any earlier would move every
// region registered after it to another address, and so to another LLC set.
func (s *Server) schedOutbox() *rpccore.Outbox {
	if s.schedOut.Buf == nil {
		s.schedOut = rpccore.NewOutbox(s.Host)
	}
	return &s.schedOut
}

// scanFailures inspects the outgoing group for dead clients: members whose
// QP already sits in the error state (their NIC stopped acknowledging —
// crashed node, downed link, invalidated response region) are returned for
// eviction, and members who went Cfg.ProbeSlices slices of their own
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
func (s *Server) scanFailures(t *host.Thread, g int) []uint16 {
	evict := s.scratch.evict[:0]
	now := t.P.Now()
	for _, cid := range s.groups[g] {
		cs := s.inGroup(g, cid)
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
		if n := s.Cfg.ProbeSlices; !cs.demoted && n > 0 && cs.missedSlices >= float64(n) {
			cs.missedSlices--
			s.Stats.Probes++
			t.PostSend(cs.QP, nic.SendWR{Op: nic.OpWrite, RKey: cs.resp.RKey, RAddr: cs.resp.Addr})
		}
	}
	s.scratch.evict = evict
	return evict
}

// settleSlice closes one slice's accounting window for group g's members:
// per-tenant byte attribution is sampled first, then each outgoing
// client's priority P_i = T_i / S_i folds in the observations (§3.2), and
// only then does the window reset (sliceScale is 1, and the arithmetic
// exact, for a slice that ran its budget). Both switch paths (contextSwitch
// and soloScan) must come through here — resetting served/bytes anywhere
// else silently destroys the attribution the fair scheduler depends on.
func (s *Server) settleSlice(g int) {
	for _, cid := range s.groups[g] {
		cs := s.inGroup(g, cid)
		if cs == nil {
			continue
		}
		if s.tenantAuth != nil && (cs.served > 0 || cs.bytes > 0) {
			s.tenantAuth.SliceAccount(cs.Tenant, cs.served, cs.bytes)
		}
		avgSize := 1.0
		if cs.served > 0 {
			avgSize = max(float64(cs.bytes)/float64(cs.served), 1)
		}
		// The sample is a rate per full slice: what a slice that ended early
		// served is scaled up to the length it was budgeted.
		inst := float64(cs.served) / avgSize * s.sliceScale
		cs.priority = 0.7*cs.priority + 0.3*inst
		cs.served, cs.bytes = 0, 0
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

// connect builds the client's state and admits it. The tenant must be
// known here, before the boundary places it: class-pure grouping reads the
// joining client's class, and a late tenant assignment would seed a
// mismatched singleton group per join — with regroup only running at
// rotation start, a large join wave would leave the rotation cycling
// one-member groups.
func (s *Server) connect(ch *host.Host, sig *sim.Signal, pinned bool, tenant uint16) *Conn {
	if len(s.clients) >= s.Cfg.MaxClients {
		panic("scalerpc: server full")
	}
	id := uint16(len(s.clients))
	sqp, cqp := s.dialRC(ch)
	conn := s.newConn(ch, sig)
	conn.req.ID, conn.req.QP = id, cqp
	cs := s.newClient(ctrlplane.Member{ID: id, QP: sqp, Peer: -1, Tenant: tenant}, conn.joinPayload())
	z := s.reserved(pinned)
	if pinned && z < 0 {
		s.clients = s.clients[:len(s.clients)-1]
		s.Host.NIC.DestroyQP(sqp)
		return nil
	}
	s.placeJoined(cs, z)
	conn.adoptPlacement(cs.Pinned, cs.zones[processing])
	// Only backdoor clients get per-client telemetry: their ids are never
	// reused, whereas a managed join may be handed a released id and the
	// registry panics on a duplicate name.
	cl := s.tel.Scope("client", fmt.Sprintf("%d", id))
	cl.GaugeVar("priority", &cs.priority)
	cl.CounterVar("retries", &conn.Retries)
	cl.CounterVar("switches", &conn.Switches)
	cl.CounterVar("reconnects", &conn.Reconnects)
	cl.CounterVar("late_completions", &conn.LateCompletions)
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
		Member: m,
		resp: rpccore.RespZone{
			Addr: binary.LittleEndian.Uint64(payload),
			RKey: binary.LittleEndian.Uint32(payload[8:]),
		},
		stageAddr: binary.LittleEndian.Uint64(payload[12:]),
		stageRKey: binary.LittleEndian.Uint32(payload[20:]),
		group:     -1,
		zones:     [2]int{-1, -1},
	}
	if int(m.ID) == len(s.clients) {
		s.clients = append(s.clients, cs)
	} else {
		s.clients[m.ID] = cs
	}
	return cs
}

// reserved returns the reserved zone a client asking to be pinned gets: the
// first bound in neither zone map, or -1 when every one is taken (Connect
// refuses such a client, every other path degrades it to a group) or when
// pinned is false.
func (s *Server) reserved(pinned bool) int {
	for z := s.Cfg.maxZones(); pinned && z < s.Cfg.totalZones(); z++ {
		if s.zoneMaps[0][z] < 0 && s.zoneMaps[1][z] < 0 {
			return z
		}
	}
	return -1
}

// placeJoined puts a client into service: pinned on reserved zone z at once
// when z >= 0, otherwise in a group from the next slice boundary.
func (s *Server) placeJoined(cs *clientState, z int) {
	if cs.Pinned = z >= 0; cs.Pinned {
		s.bind(cs, z, processing)
	} else {
		s.joins = append(s.joins, cs)
	}
}

// place puts a joiner into the group the policy picks, or a fresh group at
// the rotation's end. The client is served once its group next warms, or
// from the next tick when it is the only group.
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

// Disconnect removes a client (log-out); groups merge at the next slice
// boundary if the departure broke the size bounds.
func (s *Server) Disconnect(id uint16) {
	if int(id) >= len(s.clients) || s.clients[id] == nil {
		return
	}
	cs := s.clients[id]
	s.roster.Uncharge(&cs.Member)
	s.unplace(cs)
	s.clients[id] = nil
	s.Host.NIC.DestroyQP(cs.QP)
}

// unplace takes a departing client out of service. Its zones in both pools
// are unbound at once, so the zone-owner check drops its in-flight frames;
// its id stays listed, skipped, until the next boundary drops it.
func (s *Server) unplace(cs *clientState) {
	if cs.group >= 0 && !cs.departed {
		cs.departed = true
		s.leaves = append(s.leaves, cs)
	}
	s.unbind(cs, cs.zones[processing], processing)
	s.unbind(cs, cs.zones[warming], warming)
}

// Reconnect re-admits an existing Conn whose QP failed (retry-count
// exceeded, remote access error, or the server evicted it while its link
// was down). Both ends get fresh QPs and CQs; the client keeps its identity
// and its staging/response regions, so requests still held in the staging
// area survive the reconnect and go back out through a fresh warmup round.
func (s *Server) Reconnect(c *Conn) {
	c.h.NIC.DestroyQP(c.req.QP)
	cs := s.clients[c.req.ID]
	if cs != nil {
		s.Host.NIC.DestroyQP(cs.QP)
	}
	sqp, cqp := s.dialRC(c.h)
	if cs == nil {
		// Evicted while away: rejoin under the same id with the same
		// regions. The warmup round counter keeps increasing client-side,
		// so the fresh clientState's round mismatch makes the first
		// endpoint-entry fetch idempotent.
		cs = s.newClient(ctrlplane.Member{ID: c.req.ID, QP: sqp, Peer: -1, Tenant: c.joinTenant}, c.joinPayload())
		s.placeJoined(cs, s.reserved(c.pinned))
		s.roster.Charge(&cs.Member)
	} else {
		cs.QP = sqp
		cs.fetchedUpTo, cs.missedSlices, cs.scannedAt = 0, 0, 0
	}
	c.req.QP = cqp
	s.Stats.Readmits++
	if s.trace.Enabled {
		s.trace.Emit(c.h.Env.Now(), "client_readmit", telemetry.A("client", int64(c.req.ID)))
	}
}

// groupCount returns the number of connection groups.
func (s *Server) groupCount() int { return len(s.groups) }

// groupSizes returns the group cardinalities as of the last slice boundary.
func (s *Server) groupSizes() []int {
	var out []int
	for _, g := range s.groups {
		out = append(out, len(g))
	}
	return out
}

// NextSwitchAt exposes the scheduler's next planned switch time (used by
// global synchronization).
func (s *Server) NextSwitchAt() sim.Time { return s.nextSwitch }
