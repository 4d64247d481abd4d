// Graceful degradation: the middle rung of the failure detector's ladder.
// When the control plane's phi-accrual detector demotes a peer (suspect,
// but not yet evictable), the server keeps serving that peer's clients —
// a gray node is often still doing useful work — but stops trusting its
// link enough to probe it, and quarantines its clients into suspect-only
// groups so a straggling or lossy peer cannot inflate the slices of
// healthy clients. Restore undoes both when the peer clears.
package scalerpc

// DemotePeer marks every active client dialed from the given control-plane
// peer as demoted: liveness probes are suppressed (a probe on a lossy link
// exhausts the RC retry budget, errors the QP, and falsely evicts an
// alive client) and grouped clients move into suspect-only groups, taking
// effect at the next slice boundary. Pinned (reserved-zone) clients keep
// their zone — they are never probed or grouped — and parked or
// quarantined identities are left for the resume path to sort out.
func (s *Server) DemotePeer(peer int) { s.setDemoted(peer, true, &s.Stats.Demotes) }

// RestorePeer re-admits a demoted peer's clients to normal scheduling:
// probes resume and grouped clients are re-placed among healthy groups at
// the next slice boundary.
func (s *Server) RestorePeer(peer int) { s.setDemoted(peer, false, &s.Stats.Restores) }

// setDemoted moves peer's clients into or out of demotion, counting each
// in n. Like every change to the rotation, a grouped client's move between
// partitions waits for the next slice boundary, whose plan re-partitions
// the groups: yanking an active client out of its group mid-slice would
// revoke its zone without the context-switch notification, leaving a
// PROCESS-state client direct-writing into a pool nobody serves for it.
func (s *Server) setDemoted(peer int, demoted bool, n *uint64) {
	for _, cs := range s.clients {
		if cs == nil || cs.Peer != peer || cs.demoted == demoted || demoted && (cs.Parked || cs.Limbo) {
			continue
		}
		cs.demoted = demoted
		cs.missedSlices = 0
		*n++
		if cs.group >= 0 {
			s.parted = true
		}
	}
}
