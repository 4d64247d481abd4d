// Multi-tenant hooks: the scheduler and the membership adapter consult an
// optional TenantAuthority so a tenant manager (internal/tenant) can
// enforce connection quotas at admission, reserve zones per tenant, weight
// the rotation's time slices, keep tenant classes in separate groups, and
// attribute served work for noisy-neighbor accounting — without scalerpc
// depending on the tenant package.
package scalerpc

import (
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/sim"
)

// TenantAuthority shapes admission and scheduling per tenant. All methods
// run on server-host threads (manager or scheduler); implementations need
// no locking. Tenant 0 is the default tenant for unmanaged clients.
type TenantAuthority interface {
	// Gate is the admission half: AdmitConn screens a dial against the
	// tenant's connection and reserved-zone quotas, ConnOpened/ConnClosed
	// track what is live. The server's roster calls it and guarantees the
	// open/close pairing.
	ctrlplane.Gate
	// SliceWeight returns the tenant's fair-share weight (1 = neutral).
	// The scheduler scales a group's time slice by the ratio of its mean
	// member weight to the population mean, so shrinking a bulk tenant's
	// weight shortens every slice its clients appear in.
	SliceWeight(tenant uint16) float64
	// GroupClass partitions tenants into scheduling classes: regroup never
	// mixes classes in one group, so a latency class rotates in groups a
	// bulk tenant cannot inflate. Lower classes sort first.
	GroupClass(tenant uint16) int
	// SliceAccount attributes one client's slice window (requests served,
	// payload bytes) to its tenant, sampled at every slice boundary before
	// the window resets.
	SliceAccount(tenant uint16, served, bytes uint64)
}

// SetTenantAuthority installs the tenant manager. Must be called before
// clients join; a nil authority disables all tenant machinery (the
// default).
func (s *Server) SetTenantAuthority(a TenantAuthority) {
	s.tenantAuth = a
	s.roster.SetGate(a)
}

// settlePinned closes the slice accounting window for reserved-zone
// clients. Pinned clients never pass through settleSlice (they are in no
// group), so without this their served/bytes would accumulate unsampled
// forever. Their priority is deliberately not EWMA-updated: pinned clients
// do not compete in the rotation, and folding them into the priority
// population would shift every dynamic slice ratio. Runs only when an
// authority is installed, preserving legacy accounting otherwise.
func (s *Server) settlePinned() {
	if s.tenantAuth == nil {
		return
	}
	for z := s.Cfg.maxZones(); z < s.Cfg.totalZones(); z++ {
		owner := s.zoneOwner[z]
		if owner < 0 || s.clients[owner] == nil {
			continue
		}
		cs := s.clients[owner]
		if cs.served > 0 || cs.bytes > 0 {
			s.tenantAuth.SliceAccount(cs.Tenant, cs.served, cs.bytes)
			cs.served = 0
			cs.bytes = 0
		}
	}
}

// ConnectTenant is the backdoor counterpart of Connect for tests and
// benchmarks that want tenant attribution without the control plane: the
// authority's quota still gates admission (nil is returned when it
// rejects or queues), and the connection is opened against the tenant.
func (s *Server) ConnectTenant(ch *host.Host, sig *sim.Signal, tenant uint16, pinned bool) *Conn {
	wantPinned := pinned
	if s.tenantAuth != nil {
		granted, err := s.tenantAuth.AdmitConn(tenant, pinned)
		if err != nil {
			return nil
		}
		wantPinned = granted
	}
	c := s.connect(ch, sig, wantPinned, tenant)
	if c == nil {
		return nil
	}
	c.joinTenant = tenant
	s.roster.Charge(&s.clients[c.id].Member)
	return c
}
