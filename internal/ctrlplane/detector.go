// Adaptive phi-accrual failure detection (Hayashibara et al.) for the
// control plane's lease machinery. Instead of a fixed TTL — which under
// gray failures (stragglers, lossy links, one-way partitions) either
// evicts healthy-but-slow peers or never fires — each peer's keepalive
// inter-arrival times feed a sliding window, and the suspicion score
//
//	phi(t) = -log10( P(next arrival still pending after t) )
//
// is evaluated against the window's normal fit. phi grows continuously
// with silence, scaled by how regular the peer's arrivals have been, so
// thresholds express "how surprising is this silence" rather than a raw
// duration. The score drives a graceful-degradation ladder with
// hysteresis:
//
//	Healthy → Suspect  (phi ≥ suspectPhi; the manager starts probing)
//	        → Demoted  (phi ≥ demotePhi; data planes drain the peer)
//	        → Evicted  (phi ≥ evictPhi held for evictHold; conns destroyed)
//	        → Quarantined (rejoin rejected until a jittered backoff lapses)
//	        → Healthy  (readmitted with a fresh window)
//
// Stepping down (Suspect/Demoted → Healthy) requires phi < clearPhi for
// clearHold, and eviction requires phi ≥ evictPhi continuously for
// evictHold. The eviction dwell is what makes lossy-but-alive links safe:
// at keepalive-loss onset a tightly learned distribution sends phi past
// any threshold within a few hundred microseconds, but once the peer is
// Suspect the manager pings it every sweep, and a peer that is alive at
// all answers enough probes to break the dwell.
package ctrlplane

import (
	"fmt"
	"math"

	"scalerpc/internal/host"
	"scalerpc/internal/sim"
)

// PeerState is a rung of the degradation ladder.
type PeerState int

// Ladder rungs, in escalation order.
const (
	PeerHealthy PeerState = iota
	PeerSuspect
	PeerDemoted
	PeerEvicted
	PeerQuarantined
)

func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerDemoted:
		return "demoted"
	case PeerEvicted:
		return "evicted"
	case PeerQuarantined:
		return "quarantined"
	}
	return "?"
}

// Detector parameters, tuned for the manager's 100 µs leaseInterval
// keepalives and 25 µs sweepInterval sweeps: suspicion within ~1 sweep of
// an anomalous gap, demotion a sweep later, eviction only after ~600 µs of
// probed silence on top of a phi=8 (p < 1e-8) gap.
const (
	// detWindow is the inter-arrival sample window per peer; detMinSamples
	// is how many samples must accrue before the detector judges a peer
	// (below it the fixed LeaseTTL applies as a safety net).
	detWindow     = 32
	detMinSamples = 4
	// detMinStdDev floors the window's standard deviation so a perfectly
	// regular simulated peer doesn't make phi a step function.
	detMinStdDev sim.Duration = 20_000
	// phiCap bounds the score (erfc underflows to 0 for large silences).
	phiCap = 16

	// Ladder thresholds. clearPhi must sit below suspectPhi (hysteresis).
	suspectPhi = 1
	demotePhi  = 2
	evictPhi   = 8
	clearPhi   = 0.5

	// clearHold is how long phi must stay below clearPhi before a
	// Suspect/Demoted peer steps back to Healthy; evictHold is how long
	// phi must stay at or above evictPhi before the peer is evicted.
	clearHold sim.Duration = 200_000
	evictHold sim.Duration = 600_000

	// quarantine is the base rejoin lockout after an eviction; the actual
	// lockout is quarantine*(1 + quarantineJitter*U[0,1)) with a seeded
	// draw, so a herd of evicted peers doesn't redial in lockstep.
	quarantine       sim.Duration = 2_000_000
	quarantineJitter              = 0.5
)

// peerDetector is the per-peer detector state.
type peerDetector struct {
	win  []float64 // inter-arrival ring, ns
	idx  int
	n    int
	last sim.Time
	seen bool

	state PeerState
	phi   float64 // latest score, exported as a gauge

	clearAt   sim.Time // start of the current phi<clearPhi stretch (0 = none)
	evictAt   sim.Time // start of the current phi>=evictPhi stretch (0 = none)
	quarUntil sim.Time
}

// arrival records a liveness sample (keepalive, probe reply, handshake).
func (pd *peerDetector) arrival(now sim.Time) {
	if pd.seen && now > pd.last {
		pd.win[pd.idx] = float64(now - pd.last)
		pd.idx = (pd.idx + 1) % len(pd.win)
		if pd.n < len(pd.win) {
			pd.n++
		}
	}
	pd.last = now
	pd.seen = true
}

// reset clears the window and returns the peer to Healthy — a readmission
// after quarantine starts with no prejudice.
func (pd *peerDetector) reset() {
	pd.idx, pd.n = 0, 0
	pd.seen = false
	pd.state = PeerHealthy
	pd.phi = 0
	pd.clearAt, pd.evictAt, pd.quarUntil = 0, 0, 0
}

// phiAt evaluates the suspicion score for the silence now-last against the
// window's normal fit.
func (pd *peerDetector) phiAt(now sim.Time) float64 {
	if !pd.seen || pd.n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < pd.n; i++ {
		sum += pd.win[i]
	}
	mean := sum / float64(pd.n)
	var vsum float64
	for i := 0; i < pd.n; i++ {
		d := pd.win[i] - mean
		vsum += d * d
	}
	sd := math.Sqrt(vsum / float64(pd.n))
	if floor := float64(detMinStdDev); sd < floor {
		sd = floor
	}
	elapsed := float64(now - pd.last)
	// P(silence >= elapsed) under N(mean, sd).
	p := 0.5 * math.Erfc((elapsed-mean)/(sd*math.Sqrt2))
	if p <= 0 || math.IsNaN(p) {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi < 0 {
		phi = 0
	}
	if phi > phiCap {
		phi = phiCap
	}
	return phi
}

// OnPeerState registers a hook fired on every ladder transition — how the
// ScaleRPC server learns to drain or restore a peer.
// Hooks run on the manager thread; they must not block.
func (m *Manager) OnPeerState(fn func(peer int, old, new PeerState)) {
	m.onPeerState = append(m.onPeerState, fn)
}

// SetGroundTruth installs the harness's oracle for whether a peer is
// genuinely down. Evicting a peer the oracle calls alive increments
// detector.false_evictions — in both fixed-TTL and adaptive modes, so the
// two are comparable. Nil (the default) disables the accounting.
func (m *Manager) SetGroundTruth(fn func(peer int) bool) { m.groundTruth = fn }

// PeerStateOf reports the detector's ladder rung for a peer (PeerHealthy
// when the detector is off or the peer is unknown).
func (m *Manager) PeerStateOf(peer int) PeerState {
	if pd := m.det[peer]; pd != nil {
		return pd.state
	}
	return PeerHealthy
}

// detArrival feeds a liveness sample into the peer's detector. No-op in
// fixed-TTL mode.
func (m *Manager) detArrival(peer int, now sim.Time) {
	if m.det == nil {
		return
	}
	pd := m.det[peer]
	if pd == nil {
		pd = &peerDetector{win: make([]float64, detWindow)}
		m.det[peer] = pd
		m.detScope.GaugeVar(fmt.Sprintf("phi.peer%d", peer), &pd.phi)
	}
	pd.arrival(now)
}

// setPeerState performs one ladder transition: counters, event log, hooks.
func (m *Manager) setPeerState(peer int, pd *peerDetector, to PeerState) {
	from := pd.state
	if from == to {
		return
	}
	pd.state = to
	switch to {
	case PeerSuspect:
		m.Stats.DetectorSuspicions++
		m.event("suspect", peer, 0, 0)
	case PeerDemoted:
		if from == PeerHealthy {
			// A gap violent enough to jump straight past suspectPhi still
			// counts as a suspicion.
			m.Stats.DetectorSuspicions++
		}
		m.Stats.DetectorDemotions++
		m.event("demote", peer, 0, 0)
	case PeerEvicted:
		m.Stats.DetectorEvictions++
		if m.groundTruth != nil && !m.groundTruth(peer) {
			m.Stats.FalseEvictions++
		}
		m.event("det_evict", peer, 0, 0)
	case PeerQuarantined:
		m.event("quarantine", peer, 0, 0)
	case PeerHealthy:
		if from == PeerQuarantined {
			m.Stats.DetectorReadmits++
			m.event("readmit", peer, 0, 0)
		} else {
			m.event("restore", peer, 0, 0)
		}
	}
	for _, fn := range m.onPeerState {
		fn(peer, from, to)
	}
}

// detectorSweep advances every connected peer's ladder once per manager
// sweep: score the current silence, escalate immediately, de-escalate only
// after the clearHold dwell, and probe Suspect/Demoted peers so an
// alive-but-lossy peer keeps feeding the window. Runs before the expiry
// loop, which destroys the connections of peers marked PeerEvicted here.
func (m *Manager) detectorSweep(t *host.Thread, now sim.Time) {
	if m.det == nil {
		return
	}
	peerSet := map[int]bool{}
	for _, sc := range m.conns {
		peerSet[sc.peer] = true
	}
	// Peers whose ladder is already climbing stay under watch even after
	// their last connection errors out: an asymmetric partition kills the
	// RC pair long before the eviction dwell completes, and dropping the
	// peer from the sweep here would freeze it at Demoted forever —
	// never evicted (so no quarantine/readmit cycle) and never restored.
	// A transport-level failure is further evidence against the peer, not
	// a reason to stop scoring it; the probes below travel over UD and
	// need no RC pair.
	for peer, pd := range m.det {
		if pd.state == PeerSuspect || pd.state == PeerDemoted {
			peerSet[peer] = true
		}
	}
	for _, peer := range sortedKeys(peerSet) {
		pd := m.det[peer]
		if pd == nil || pd.n < detMinSamples {
			continue // LeaseTTL safety net applies until history accrues
		}
		if pd.state == PeerEvicted || pd.state == PeerQuarantined {
			continue
		}
		phi := pd.phiAt(now)
		pd.phi = phi

		// Eviction needs the score held at evictPhi for the whole
		// evictHold dwell — the guard that keeps lossy-but-alive peers
		// connected: once Suspect, probes below refresh the window, and
		// any single arrival breaks the stretch.
		if phi >= evictPhi {
			if pd.evictAt == 0 {
				pd.evictAt = now
			}
			if now-pd.evictAt >= evictHold {
				m.setPeerState(peer, pd, PeerEvicted)
				continue
			}
		} else {
			pd.evictAt = 0
		}

		if phi >= demotePhi {
			if pd.state != PeerDemoted {
				m.setPeerState(peer, pd, PeerDemoted)
			}
		} else if phi >= suspectPhi && pd.state == PeerHealthy {
			m.setPeerState(peer, pd, PeerSuspect)
		}

		if phi < clearPhi {
			if pd.clearAt == 0 {
				pd.clearAt = now
			}
			if now-pd.clearAt >= clearHold && pd.state != PeerHealthy {
				m.setPeerState(peer, pd, PeerHealthy)
			}
		} else {
			pd.clearAt = 0
		}

		if pd.state == PeerSuspect || pd.state == PeerDemoted {
			m.Stats.DetectorProbes++
			m.send(t, peer, &wireMsg{kind: kindPing})
		}
	}
}

// peerExpired is the sweep's expiry predicate: the adaptive ladder when
// the detector has enough history on the peer, the fixed LeaseTTL
// otherwise.
func (m *Manager) peerExpired(peer int, now sim.Time) bool {
	if m.det != nil {
		if pd := m.det[peer]; pd != nil && pd.n >= detMinSamples {
			return pd.state == PeerEvicted
		}
	}
	return now-m.leases[peer] > m.cfg.LeaseTTL
}

// quarantineEvicted moves freshly evicted peers into quarantine with a
// seeded-jitter lockout, so a herd of evictees doesn't redial in lockstep.
func (m *Manager) quarantineEvicted(now sim.Time) {
	if m.det == nil {
		return
	}
	for _, peer := range sortedKeys(m.det) {
		pd := m.det[peer]
		if pd.state != PeerEvicted {
			continue
		}
		dur := float64(quarantine) * (1 + quarantineJitter*m.detRNG.Float64())
		pd.quarUntil = now + sim.Duration(dur)
		m.setPeerState(peer, pd, PeerQuarantined)
	}
}

// quarantineReject gates a connect/resume from a quarantined peer. An
// attempt after the lockout readmits the peer with a fresh window.
func (m *Manager) quarantineReject(t *host.Thread, peer int, msg *wireMsg) bool {
	if m.det == nil {
		return false
	}
	pd := m.det[peer]
	if pd == nil || pd.state != PeerQuarantined {
		return false
	}
	if m.h.Env.Now() >= pd.quarUntil {
		m.setPeerState(peer, pd, PeerHealthy) // Quarantined→Healthy = readmit
		pd.reset()
		return false
	}
	m.reject(t, peer, msg, "quarantined")
	return true
}
