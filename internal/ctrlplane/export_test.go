package ctrlplane

import "scalerpc/internal/sim"

// LimboCap exposes the quarantine bound to the external tests.
const LimboCap = limboCap

// ActiveConns returns the number of active inbound connections.
func (m *Manager) ActiveConns() int { return len(m.conns) }

// CachedConns returns the number of parked inbound connections.
func (m *Manager) CachedConns() int { return len(m.parked) }

// SetCacheBounds replaces the manager's connection-cache bounds; call it
// before the simulation runs.
func (m *Manager) SetCacheBounds(capacity int, idle sim.Duration) {
	m.cacheCap, m.idleTimeout = capacity, idle
}
