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
// effect at the next context switch. Pinned (reserved-zone) clients keep
// their zone — they are never probed or grouped — and parked or
// quarantined identities are left for the resume path to sort out.
func (s *Server) DemotePeer(peer int) {
	for _, cs := range s.clients {
		if cs == nil || cs.Peer != peer || cs.demoted || cs.Parked || cs.Limbo {
			continue
		}
		cs.demoted = true
		cs.missedSlices = 0
		s.Stats.Demotes++
		if cs.Pinned || cs.group < 0 {
			continue
		}
		// Regrouping is deferred to the next context switch rather than done
		// here with an unplace/place: yanking an active client out of its
		// group mid-slice revokes its zone without the context-switch
		// notification, so a PROCESS-state client keeps direct-writing into
		// a pool nobody serves for it and stalls until some unrelated event
		// shakes it loose. The switch path re-partitions via regroup, whose
		// moves only affect clients already notified when their group
		// rotated out.
		s.regroupDue = true
	}
}

// RestorePeer re-admits a demoted peer's clients to normal scheduling:
// probes resume and grouped clients are re-placed among healthy groups at
// the next context switch.
func (s *Server) RestorePeer(peer int) {
	for _, cs := range s.clients {
		if cs == nil || cs.Peer != peer || !cs.demoted {
			continue
		}
		cs.demoted = false
		cs.missedSlices = 0
		s.Stats.Restores++
		if cs.Pinned || cs.Parked || cs.Limbo || cs.group < 0 {
			continue
		}
		// Deferred for the same reason as DemotePeer: the switch-path
		// regroup is the only safe place to move an active client.
		s.regroupDue = true
	}
}

// groupDemoted reports whether a group holds suspect (demoted) clients.
// Groups are kept partition-pure by place and regroup, so the first member
// speaks for the group.
func (s *Server) groupDemoted(grp []uint16) bool {
	return len(grp) > 0 && s.clients[grp[0]] != nil && s.clients[grp[0]].demoted
}

// partKey is the regroup partition key: chunks never span a key boundary.
// Demoted clients partition away from healthy ones within each tenant
// scheduling class; without a tenant authority the class component is
// zero.
func (s *Server) partKey(cid uint16) int {
	k := 0
	if s.tenantAuth != nil {
		k = s.tenantClassOf(cid) << 1
	}
	if s.clients[cid] != nil && s.clients[cid].demoted {
		k |= 1
	}
	return k
}
