// Package tenant is the multi-tenant QoS and admission-control subsystem:
// a registry of tenants with declarative quotas (connections, reserved
// zones, fair-share weight, scheduling class), enforced at connection
// setup through the control plane's pre-admission gate and at steady
// state through the ScaleRPC scheduler's tenant hooks.
//
// The Manager satisfies scalerpc.TenantAuthority and rawrpc.TenantGate
// structurally — both packages declare their own interface, so neither
// depends on this one. Admission decisions are a pure function (Decide)
// over the tenant's quota and live usage, which keeps the control plane's
// repeated gate checks (pre-admit, Accept/Resume) free of
// side effects and makes the decision table directly testable.
//
// The online SLO controller lives in controller.go.
package tenant

import (
	"fmt"

	"scalerpc/internal/telemetry"
)

// Class is a tenant's scheduling class. The ScaleRPC scheduler never mixes
// classes inside one group, so lower classes rotate in groups that higher
// (bulk) classes cannot inflate; the class also orders groups within the
// rotation. Lower value = more latency-sensitive.
type Class uint8

const (
	// ClassLatency tenants get class-pure groups at the front of the
	// rotation and are the SLO controller's protected parties.
	ClassLatency Class = iota
	// ClassBulk tenants are throughput-oriented and the controller's
	// shedding targets.
	ClassBulk
	// ClassBestEffort is where the controller demotes misbehaving bulk
	// tenants; it sorts last and holds no service guarantee.
	ClassBestEffort
)

func (c Class) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassBulk:
		return "bulk"
	case ClassBestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Quota declares a tenant's resource envelope.
type Quota struct {
	// MaxConns caps live connections (0 = unlimited). On the RawWrite
	// baseline every connection owns a statically mapped zone for the
	// lifetime of its identity, so MaxConns doubles as the zone-footprint
	// cap there.
	MaxConns int
	// ReservedZones caps how many reserved (pinned) ScaleRPC zones the
	// tenant may hold; a pinned join beyond the cap is admitted degraded
	// to the shared rotation rather than refused.
	ReservedZones int
	// Weight is the fair-share weight of the tenant's time slices
	// (0 means 1). The scheduler scales a group's slice by the ratio of
	// the group's mean member weight to the population mean.
	Weight float64
	// Class is the tenant's scheduling class.
	Class Class
}

// Spec names a tenant and its quota.
type Spec struct {
	Name  string
	Quota Quota
}

// Decision is the outcome of an admission check.
type Decision uint8

const (
	// Admit lets the connection in as requested.
	Admit Decision = iota
	// AdmitUnpinned lets the connection in but denies its reserved-zone
	// request (degraded to the shared rotation).
	AdmitUnpinned
	// Reject refuses the dial outright.
	Reject
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case AdmitUnpinned:
		return "admit-unpinned"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// Decide is the pure admission rule: given a tenant's quota, its live
// usage (connections, pinned zones held), whether the dial requests a
// pinned zone, and whether the controller is shedding the tenant, it
// returns the decision and whether a pinned request is granted.
// Shedding and connection overflow reject the dial; a pinned request beyond
// the zone quota merely degrades to unpinned.
func Decide(q Quota, live, pinnedLive int, pinned, shed bool) (Decision, bool) {
	if shed || q.MaxConns > 0 && live >= q.MaxConns {
		return Reject, false
	}
	if pinned {
		if pinnedLive >= q.ReservedZones {
			return AdmitUnpinned, false
		}
		return Admit, true
	}
	return Admit, false
}

// state is the Manager's live view of one tenant.
type state struct {
	spec Spec

	// Live usage, maintained by ConnOpened/ConnClosed (the servers
	// guarantee they pair).
	live       int
	pinnedLive int

	// Controller levers (controller.go). weightScale multiplies the
	// declared weight; class overrides the declared class; shed refuses
	// new admissions.
	weightScale float64
	class       Class
	shed        bool

	// Attribution counters, registered under the tenant's telemetry scope.
	opened, closed uint64
	served, bytes  uint64

	gConns  *telemetry.Gauge
	gWeight *telemetry.Gauge
	gClass  *telemetry.Gauge
	gShed   *telemetry.Gauge
}

func (st *state) weight() float64 {
	w := st.spec.Quota.Weight
	if w <= 0 {
		w = 1
	}
	return w * st.weightScale
}

// Manager is the tenant registry and the admission/scheduling authority
// handed to servers. All methods run on server-host threads inside the
// single-threaded simulation; no locking.
type Manager struct {
	tenants []*state
	byName  map[string]uint16
	tel     telemetry.Scope
}

// NewManager builds a registry with tenant 0 pre-registered as the
// unlimited "default" tenant, the attribution bucket for unmanaged
// clients (legacy Join paths stamp tenant 0).
func NewManager(tel telemetry.Scope) *Manager {
	m := &Manager{byName: make(map[string]uint16), tel: tel}
	m.Register(Spec{Name: "default", Quota: Quota{ReservedZones: 1 << 20}})
	return m
}

// Register adds a tenant and returns its id (stamped into join payloads).
// Names must be unique; registration order fixes ids, so register in a
// deterministic order.
func (m *Manager) Register(spec Spec) uint16 {
	if _, dup := m.byName[spec.Name]; dup {
		panic("tenant: duplicate tenant name " + spec.Name)
	}
	id := uint16(len(m.tenants))
	st := &state{spec: spec, weightScale: 1, class: spec.Quota.Class}
	sc := m.tel.Scope("tenant", spec.Name)
	sc.CounterVar("conns_opened", &st.opened)
	sc.CounterVar("conns_closed", &st.closed)
	sc.CounterVar("served", &st.served)
	sc.CounterVar("bytes", &st.bytes)
	st.gConns = sc.Gauge("conns")
	st.gWeight = sc.Gauge("weight")
	st.gClass = sc.Gauge("class")
	st.gShed = sc.Gauge("shed")
	st.gWeight.Set(st.weight())
	st.gClass.Set(float64(st.class))
	m.tenants = append(m.tenants, st)
	m.byName[spec.Name] = id
	return id
}

// state clamps unknown ids to the default tenant so a stray payload
// cannot index out of range.
func (m *Manager) state(tenant uint16) *state {
	if int(tenant) >= len(m.tenants) {
		tenant = 0
	}
	return m.tenants[tenant]
}

// AdmitConn implements the admission gate (scalerpc.TenantAuthority,
// rawrpc.TenantGate). Side-effect free: the control plane calls it in the
// pre-admission gate and again in Accept/Resume.
func (m *Manager) AdmitConn(tenant uint16, pinned bool) (bool, error) {
	st := m.state(tenant)
	d, granted := Decide(st.spec.Quota, st.live, st.pinnedLive, pinned, st.shed)
	if d == Reject {
		if st.shed {
			return false, fmt.Errorf("tenant %s: shed by SLO controller", st.spec.Name)
		}
		return false, fmt.Errorf("tenant %s: connection quota exceeded (%d live, max %d)",
			st.spec.Name, st.live, st.spec.Quota.MaxConns)
	}
	return granted, nil
}

// Decide exposes the decision (without the error mapping) for tests and
// diagnostics.
func (m *Manager) Decide(tenant uint16, pinned bool) (Decision, bool) {
	st := m.state(tenant)
	return Decide(st.spec.Quota, st.live, st.pinnedLive, pinned, st.shed)
}

// ConnOpened records an admitted connection (pinned = it holds a reserved
// zone, or any RawWrite zone).
func (m *Manager) ConnOpened(tenant uint16, pinned bool) {
	st := m.state(tenant)
	st.live++
	st.opened++
	if pinned {
		st.pinnedLive++
	}
	st.gConns.Set(float64(st.live))
}

// ConnClosed records a departed connection.
func (m *Manager) ConnClosed(tenant uint16, pinned bool) {
	st := m.state(tenant)
	st.live--
	st.closed++
	if pinned {
		st.pinnedLive--
	}
	st.gConns.Set(float64(st.live))
}

// Live returns a tenant's live connection and pinned-zone counts.
func (m *Manager) Live(tenant uint16) (conns, pinned int) {
	st := m.state(tenant)
	return st.live, st.pinnedLive
}

// SliceWeight returns the tenant's effective fair-share weight: the
// declared weight scaled by the controller's lever.
func (m *Manager) SliceWeight(tenant uint16) float64 { return m.state(tenant).weight() }

// GroupClass returns the tenant's effective scheduling class (the
// controller may have demoted it).
func (m *Manager) GroupClass(tenant uint16) int { return int(m.state(tenant).class) }

// SliceAccount attributes one client's slice window to its tenant.
func (m *Manager) SliceAccount(tenant uint16, served, bytes uint64) {
	st := m.state(tenant)
	st.served += served
	st.bytes += bytes
}

// setWeightScale, setClass and setShed are the controller's levers.
func (m *Manager) setWeightScale(tenant uint16, scale float64) {
	st := m.state(tenant)
	st.weightScale = scale
	st.gWeight.Set(st.weight())
}

func (m *Manager) setClass(tenant uint16, c Class) {
	st := m.state(tenant)
	st.class = c
	st.gClass.Set(float64(c))
}

func (m *Manager) setShed(tenant uint16, shed bool) {
	st := m.state(tenant)
	st.shed = shed
	if shed {
		st.gShed.Set(1)
	} else {
		st.gShed.Set(0)
	}
}
