package ctrlplane

// LimboCap exposes the quarantine bound to the external tests.
const LimboCap = limboCap

// ActiveConns returns the number of active inbound connections.
func (m *Manager) ActiveConns() int { return len(m.conns) }

// CachedConns returns the number of parked inbound connections.
func (m *Manager) CachedConns() int { return len(m.parked) }
