// Package faults is the deterministic fault-injection plane: a seeded,
// virtual-time schedule of link faults (drop / corrupt / duplicate / delay),
// link flaps, node crashes and restarts, and named custom events, injected
// into the fabric through fabric.SetInterceptor and into the NICs through
// their reliability knobs.
//
// Everything is driven by the simulator clock and one split of the cluster
// RNG, so a (workload, scenario, seed) triple replays byte-identically —
// the property the determinism tests pin down. The plane itself only decides
// message fates and fires hooks; recovery is the consumers' job: the NIC's
// RC engine retransmits on timeout/NAK, the ScaleRPC client reconnects after
// a QP error, and the ScaleRPC server evicts clients that stop responding.
package faults

import (
	"scalerpc/internal/fabric"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// PlaneStats counts injected faults (not their downstream effects — those
// show up in the NIC and transport counters).
type PlaneStats struct {
	Drops    uint64 `json:"drops"` // messages dropped by link-fault rules
	Corrupts uint64 `json:"corrupts"`
	Dups     uint64 `json:"dups"`
	Delays   uint64 `json:"delays"`
	// PayloadCorrupts counts past-ICRC corruption injections: the message
	// is delivered with flipped payload bits instead of being discarded.
	PayloadCorrupts uint64 `json:"payload_corrupts"`

	// Jitters counts messages that received a random link-jitter delay;
	// Throttles counts messages whose serialization time was stretched by
	// a WireTimeScale rule.
	Jitters   uint64 `json:"jitters"`
	Throttles uint64 `json:"throttles"`

	LinkDownDrops uint64 `json:"link_down_drops"` // messages dropped because an endpoint was down
	Flaps         uint64 `json:"flaps"`
	Crashes       uint64 `json:"crashes"`
	Restarts      uint64 `json:"restarts"`
	Events        uint64 `json:"events"`
	// Stragglers counts straggler episode starts; StragglerDelays counts
	// messages delayed because an endpoint was straggling.
	Stragglers      uint64 `json:"stragglers"`
	StragglerDelays uint64 `json:"straggler_delays"`
}

// Plane executes one Scenario against one cluster.
type Plane struct {
	env   *sim.Env
	sc    *Scenario
	rng   *stats.RNG
	Stats PlaneStats

	// flapDepth counts overlapping down-windows per node; dead marks
	// crashed (and not yet restarted) nodes; straggling maps a node to its
	// active straggler episode (overlapping episodes: last to start wins).
	flapDepth  map[int]int
	dead       map[int]bool
	straggling map[int]Straggler

	onCrash        []func(node int)
	onRestart      []func(node int)
	onStraggler    []func(st Straggler)
	onStragglerEnd []func(node int)
	onEvent        map[string][]func(Event)
}

// New builds a plane and schedules the scenario's timed entries on env.
// Call before Env.Run; hooks registered afterwards (OnCrash etc.) still
// fire, since dispatch reads the hook lists at event time.
func New(env *sim.Env, sc *Scenario, rng *stats.RNG) *Plane {
	p := &Plane{
		env:        env,
		sc:         sc,
		rng:        rng,
		flapDepth:  make(map[int]int),
		dead:       make(map[int]bool),
		straggling: make(map[int]Straggler),
		onEvent:    make(map[string][]func(Event)),
	}
	p.schedule()
	return p
}

// Scenario returns the schedule this plane executes.
func (p *Plane) Scenario() *Scenario { return p.sc }

// at schedules fn at absolute virtual time t (clamped to now).
func (p *Plane) at(t int64, fn func()) {
	delay := sim.Time(t) - p.env.Now()
	if delay < 0 {
		delay = 0
	}
	p.env.At(sim.Duration(delay), fn)
}

func (p *Plane) schedule() {
	for _, fl := range p.sc.Flaps {
		fl := fl
		p.at(fl.At, func() {
			p.Stats.Flaps++
			p.flapDepth[fl.Node]++
		})
		p.at(fl.At+fl.DownNs, func() { p.flapDepth[fl.Node]-- })
	}
	for _, cr := range p.sc.Crashes {
		cr := cr
		p.at(cr.At, func() { p.crash(cr.Node) })
		if cr.RestartAfterNs > 0 {
			p.at(cr.At+cr.RestartAfterNs, func() { p.restart(cr.Node) })
		}
	}
	for _, st := range p.sc.Stragglers {
		st := st
		p.at(st.At, func() { p.stragglerStart(st) })
		if st.DurNs > 0 {
			p.at(st.At+st.DurNs, func() { p.stragglerEnd(st.Node) })
		}
	}
	for _, ev := range p.sc.Events {
		ev := ev
		p.at(ev.At, func() {
			p.Stats.Events++
			for _, fn := range p.onEvent[ev.Kind] {
				fn(ev)
			}
		})
	}
}

func (p *Plane) stragglerStart(st Straggler) {
	p.Stats.Stragglers++
	p.straggling[st.Node] = st
	for _, fn := range p.onStraggler {
		fn(st)
	}
}

func (p *Plane) stragglerEnd(node int) {
	if _, ok := p.straggling[node]; !ok {
		return
	}
	delete(p.straggling, node)
	for _, fn := range p.onStragglerEnd {
		fn(node)
	}
}

func (p *Plane) crash(node int) {
	if p.dead[node] {
		return
	}
	p.dead[node] = true
	p.Stats.Crashes++
	for _, fn := range p.onCrash {
		fn(node)
	}
}

func (p *Plane) restart(node int) {
	if !p.dead[node] {
		return
	}
	delete(p.dead, node)
	p.Stats.Restarts++
	for _, fn := range p.onRestart {
		fn(node)
	}
}

// CrashNode kills a node immediately, outside any scenario schedule (tests
// and interactive experiments).
func (p *Plane) CrashNode(node int) { p.crash(node) }

// RestartNode revives a previously crashed node.
func (p *Plane) RestartNode(node int) { p.restart(node) }

// NodeDown reports whether the node is currently unreachable (crashed or
// inside a flap window).
func (p *Plane) NodeDown(node int) bool {
	return p.dead[node] || p.flapDepth[node] > 0
}

// OnCrash registers a hook fired when a node crashes (consumers pause the
// node's processes, invalidate its registrations, fail its QPs).
func (p *Plane) OnCrash(fn func(node int)) { p.onCrash = append(p.onCrash, fn) }

// OnRestart registers a hook fired when a crashed node comes back.
func (p *Plane) OnRestart(fn func(node int)) { p.onRestart = append(p.onRestart, fn) }

// OnStraggler registers a hook fired when a straggler episode starts
// (consumers apply the CPU factor to the node's host).
func (p *Plane) OnStraggler(fn func(st Straggler)) { p.onStraggler = append(p.onStraggler, fn) }

// OnStragglerEnd registers a hook fired when a straggler episode ends.
func (p *Plane) OnStragglerEnd(fn func(node int)) {
	p.onStragglerEnd = append(p.onStragglerEnd, fn)
}

// OnEvent binds behaviour to a named scenario event kind.
func (p *Plane) OnEvent(kind string, fn func(Event)) {
	p.onEvent[kind] = append(p.onEvent[kind], fn)
}

// Install points the fabric's interceptor at this plane.
func (p *Plane) Install(fab *fabric.Fabric) { fab.SetInterceptor(p.intercept) }

// intercept decides one message's fate. Down endpoints drop everything;
// otherwise the first matching link rule draws the dice. All randomness
// comes from the plane's RNG in fabric call order, which the single-threaded
// simulator makes deterministic.
func (p *Plane) intercept(msg *fabric.Message) fabric.Verdict {
	if p.NodeDown(msg.Src) || p.NodeDown(msg.Dst) {
		p.Stats.LinkDownDrops++
		return fabric.Verdict{Drop: true}
	}
	now := int64(p.env.Now())
	var v fabric.Verdict
	for i := range p.sc.Links {
		lf := &p.sc.Links[i]
		if !lf.matches(msg.Src, msg.Dst, now) || !lf.classMatches(msg.Class) {
			continue
		}
		if lf.DropRate > 0 && p.rng.Float64() < lf.DropRate {
			p.Stats.Drops++
			v.Drop = true
			return v
		}
		if lf.CorruptRate > 0 && p.rng.Float64() < lf.CorruptRate {
			p.Stats.Corrupts++
			v.Corrupt = true
		}
		if lf.PayloadCorruptRate > 0 && p.rng.Float64() < lf.PayloadCorruptRate {
			p.Stats.PayloadCorrupts++
			v.CorruptPayload = true
		}
		if lf.DupRate > 0 && p.rng.Float64() < lf.DupRate {
			p.Stats.Dups++
			v.Duplicate = true
		}
		if lf.DelayNs > 0 && (lf.DelayRate <= 0 || lf.DelayRate >= 1 || p.rng.Float64() < lf.DelayRate) {
			p.Stats.Delays++
			v.ExtraDelay = sim.Duration(lf.DelayNs)
		}
		if lf.JitterNs > 0 {
			p.Stats.Jitters++
			v.ExtraDelay += sim.Duration(p.rng.Int63() % lf.JitterNs)
		}
		if lf.WireTimeScale > 1 {
			p.Stats.Throttles++
			v.WireTimeScale = lf.WireTimeScale
		}
		break
	}
	return p.stragglerVerdict(msg, v)
}

// stragglerVerdict layers straggler NIC slowdown on top of a link-rule
// verdict: messages touching a straggling endpoint gain its fixed delay
// plus seeded uniform jitter. Both endpoints straggling stacks both. The
// RNG is only consulted for actual jitter, in fabric call order, so the
// draw sequence stays deterministic.
func (p *Plane) stragglerVerdict(msg *fabric.Message, v fabric.Verdict) fabric.Verdict {
	if len(p.straggling) == 0 || v.Drop {
		return v
	}
	apply := func(st Straggler) {
		p.Stats.StragglerDelays++
		v.ExtraDelay += sim.Duration(st.NICDelayNs)
		if st.NICJitterNs > 0 {
			v.ExtraDelay += sim.Duration(p.rng.Int63() % st.NICJitterNs)
		}
	}
	if st, ok := p.straggling[msg.Src]; ok && (st.NICDelayNs > 0 || st.NICJitterNs > 0) {
		apply(st)
	}
	if msg.Dst != msg.Src {
		if st, ok := p.straggling[msg.Dst]; ok && (st.NICDelayNs > 0 || st.NICJitterNs > 0) {
			apply(st)
		}
	}
	return v
}

// TuneNIC applies the scenario's reliability overrides to a NIC config. The
// lossless default disables the requester retransmit timer, which would turn
// every injected drop of a window-final packet into a hang, so a plane
// always enables it — 20µs unless the scenario says otherwise.
func (p *Plane) TuneNIC(cfg *nic.Config) { p.TuneNICNode(-1, cfg) }

// TuneNICNode is TuneNIC for a specific host: when the scenario scopes its
// overrides (NICTuning.Nodes), hosts outside the scope get only the
// retransmit floor. node -1 means "unscoped caller" and always applies.
func (p *Plane) TuneNICNode(node int, cfg *nic.Config) {
	t := p.sc.NIC
	if len(t.Nodes) > 0 && node >= 0 {
		scoped := false
		for _, n := range t.Nodes {
			if n == node {
				scoped = true
				break
			}
		}
		if !scoped {
			if cfg.RetransmitTimeout <= 0 {
				cfg.RetransmitTimeout = 20 * sim.Microsecond
			}
			return
		}
	}
	if t.RetransmitTimeoutNs > 0 {
		cfg.RetransmitTimeout = sim.Duration(t.RetransmitTimeoutNs)
	} else if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = 20 * sim.Microsecond
	}
	if t.RetryCount > 0 {
		cfg.RetryCount = t.RetryCount
	}
	if t.RNRTimeoutNs > 0 {
		cfg.RNRTimeout = sim.Duration(t.RNRTimeoutNs)
	}
	if t.RNRRetryCount > 0 {
		cfg.RNRRetryCount = t.RNRRetryCount
	}
}

// Register exposes the plane's counters under the given scope (conventionally
// "faults", giving faults.injected.drops etc. in -metrics dumps).
func (p *Plane) Register(sc telemetry.Scope) {
	sc.CounterVar("injected.drops", &p.Stats.Drops)
	sc.CounterVar("injected.corrupts", &p.Stats.Corrupts)
	sc.CounterVar("injected.payload_corrupts", &p.Stats.PayloadCorrupts)
	sc.CounterVar("injected.dups", &p.Stats.Dups)
	sc.CounterVar("injected.delays", &p.Stats.Delays)
	sc.CounterVar("injected.jitters", &p.Stats.Jitters)
	sc.CounterVar("injected.throttles", &p.Stats.Throttles)
	sc.CounterVar("link.down_drops", &p.Stats.LinkDownDrops)
	sc.CounterVar("flaps", &p.Stats.Flaps)
	sc.CounterVar("crashes", &p.Stats.Crashes)
	sc.CounterVar("restarts", &p.Stats.Restarts)
	sc.CounterVar("stragglers", &p.Stats.Stragglers)
	sc.CounterVar("straggler_delays", &p.Stats.StragglerDelays)
	sc.CounterVar("events", &p.Stats.Events)
}
