package tenant_test

import (
	"errors"
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
	"scalerpc/internal/tenant"
)

// The Manager must satisfy both data planes' locally declared interfaces.
var (
	_ scalerpc.TenantAuthority = (*tenant.Manager)(nil)
	_ rawrpc.TenantGate        = (*tenant.Manager)(nil)
)

// TestDecideTable pins the pure admission rule across the quota/usage
// space: admit, degrade (pinned denied) and reject.
func TestDecideTable(t *testing.T) {
	cases := []struct {
		name             string
		q                tenant.Quota
		live, pinnedLive int
		pinned, shed     bool
		want             tenant.Decision
		wantGrant        bool
	}{
		{name: "unlimited admits", q: tenant.Quota{}, live: 1000, want: tenant.Admit},
		{name: "under conn quota", q: tenant.Quota{MaxConns: 4}, live: 3, want: tenant.Admit},
		{name: "at conn quota rejects", q: tenant.Quota{MaxConns: 4}, live: 4, want: tenant.Reject},
		{name: "pinned granted under zone quota", q: tenant.Quota{ReservedZones: 2}, pinnedLive: 1, pinned: true,
			want: tenant.Admit, wantGrant: true},
		{name: "pinned degrades at zone quota", q: tenant.Quota{ReservedZones: 2}, pinnedLive: 2, pinned: true,
			want: tenant.AdmitUnpinned},
		{name: "pinned degrades with no zone quota", q: tenant.Quota{}, pinned: true, want: tenant.AdmitUnpinned},
		{name: "shed rejects under quota", q: tenant.Quota{MaxConns: 8}, live: 0, shed: true, want: tenant.Reject},
		{name: "conn quota beats pinned grant", q: tenant.Quota{MaxConns: 1, ReservedZones: 4}, live: 1, pinned: true,
			want: tenant.Reject},
	}
	for _, tc := range cases {
		d, grant := tenant.Decide(tc.q, tc.live, tc.pinnedLive, tc.pinned, tc.shed)
		if d != tc.want || grant != tc.wantGrant {
			t.Errorf("%s: Decide = (%v, %v), want (%v, %v)", tc.name, d, grant, tc.want, tc.wantGrant)
		}
	}
}

// TestManagerAdmitConnMapping checks the decision→error mapping the
// control plane keys on: an over-quota tenant gets a reason, and usage from
// ConnOpened/ConnClosed moves the decision.
func TestManagerAdmitConnMapping(t *testing.T) {
	m := tenant.NewManager(telemetry.Scope{})
	rej := m.Register(tenant.Spec{Name: "rej", Quota: tenant.Quota{MaxConns: 1}})

	if _, err := m.AdmitConn(rej, false); err != nil {
		t.Fatalf("under-quota admit: %v", err)
	}
	m.ConnOpened(rej, false)
	if _, err := m.AdmitConn(rej, false); err == nil {
		t.Fatal("over-quota tenant admitted")
	}
	m.ConnClosed(rej, false)
	if _, err := m.AdmitConn(rej, false); err != nil {
		t.Fatalf("admit after close: %v", err)
	}

	// Unknown ids clamp to the unlimited default tenant.
	if _, err := m.AdmitConn(9999, false); err != nil {
		t.Fatalf("unknown tenant: %v", err)
	}
}

// planeServer builds a 3-host cluster with a ScaleRPC server on host 0,
// a tenant authority installed, and control-plane managers everywhere.
func planeServer(t *testing.T, m *tenant.Manager, cfg ctrlplane.Config) (*cluster.Cluster, *scalerpc.Server, *ctrlplane.Directory) {
	t.Helper()
	c := cluster.New(cluster.Default(3))
	scfg := scalerpc.DefaultServerConfig()
	scfg.Workers = 2
	scfg.GroupSize = 8
	scfg.TimeSlice = 50 * sim.Microsecond
	scfg.BlocksPerClient = 8
	scfg.MaxClients = 64
	s := scalerpc.NewServer(c.Hosts[0], scfg)
	s.SetTenantAuthority(m)
	s.Start()
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	s.BindControlPlane(dir.Manager(0))
	return c, s, dir
}

func stepUntil(t *testing.T, env *sim.Env, limit sim.Duration, cond func() bool) {
	t.Helper()
	deadline := env.Now() + limit
	for !cond() {
		if env.Now() >= deadline {
			t.Fatalf("condition not reached within %d ns", limit)
		}
		env.RunUntil(env.Now() + 20_000)
	}
}

// TestScaleRPCAdmissionRejectAndDegrade drives the full handshake: a
// rejecting tenant's second dial fails with the quota reason before any
// data-plane state exists, and a pinned join beyond the tenant's zone
// quota is admitted degraded to the shared rotation.
func TestScaleRPCAdmissionRejectAndDegrade(t *testing.T) {
	m := tenant.NewManager(telemetry.Scope{})
	lat := m.Register(tenant.Spec{Name: "lat", Quota: tenant.Quota{MaxConns: 1, ReservedZones: 1}})
	c, s, dir := planeServer(t, m, ctrlplane.DefaultConfig())
	defer c.Close()

	done := 0
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		sig := sim.NewSignal(c.Env)
		conn, err := s.JoinTenant(th, dir, sig, true, lat)
		if err != nil {
			t.Errorf("first join: %v", err)
			done = -1
			return
		}
		if conns, pinned := m.Live(lat); conns != 1 || pinned != 1 {
			t.Errorf("live = (%d, %d), want (1, 1)", conns, pinned)
		}
		// Second connection: over MaxConns, rejected at the gate.
		if _, err := s.JoinTenant(th, dir, sig, false, lat); err == nil {
			t.Error("second join admitted over quota")
		} else {
			var rej *ctrlplane.RejectError
			if !errors.As(err, &rej) {
				t.Errorf("second join error = %v, want RejectError", err)
			}
		}
		// Free the connection; a pinned rejoin now exceeds the zone quota
		// only if the pin were double-counted — it must come back pinned.
		conn.Leave(th)
		th.P.Sleep(100 * sim.Microsecond)
		if conns, pinned := m.Live(lat); conns != 0 || pinned != 0 {
			t.Errorf("live after leave = (%d, %d), want (0, 0)", conns, pinned)
		}
		done = 1
	})
	stepUntil(t, c.Env, 50*sim.Millisecond, func() bool { return done != 0 })

	// Zone-quota degrade: a fresh tenant with no reserved zones joining
	// pinned is admitted unpinned.
	deg := m.Register(tenant.Spec{Name: "deg", Quota: tenant.Quota{MaxConns: 2}})
	done = 0
	c.Hosts[2].Spawn("degraded", func(th *host.Thread) {
		sig := sim.NewSignal(c.Env)
		if _, err := s.JoinTenant(th, dir, sig, true, deg); err != nil {
			t.Errorf("degraded join: %v", err)
			done = -1
			return
		}
		if conns, pinned := m.Live(deg); conns != 1 || pinned != 0 {
			t.Errorf("degraded live = (%d, %d), want (1, 0)", conns, pinned)
		}
		done = 1
	})
	stepUntil(t, c.Env, 50*sim.Millisecond, func() bool { return done != 0 })
}

// TestRawWriteZoneQuotaPersistsAcrossLeave pins RawWrite's tenant
// accounting to its non-shrinking footprint: a graceful leave keeps the
// zone charged, so the tenant stays at quota until the identity is
// administratively forgotten.
func TestRawWriteZoneQuotaPersistsAcrossLeave(t *testing.T) {
	m := tenant.NewManager(telemetry.Scope{})
	bulk := m.Register(tenant.Spec{Name: "bulk", Quota: tenant.Quota{MaxConns: 1}})

	c := cluster.New(cluster.Default(3))
	defer c.Close()
	s := rawrpc.NewServer(c.Hosts[0], rawrpc.DefaultServerConfig())
	s.SetTenantGate(m)
	s.Start()
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, ctrlplane.DefaultConfig(), dir).Start()
	}
	s.BindControlPlane(dir.Manager(0))

	done := 0
	var heldID uint16
	c.Hosts[1].Spawn("bulk0", func(th *host.Thread) {
		sig := sim.NewSignal(c.Env)
		conn, err := s.JoinTenant(th, dir, sig, bulk)
		if err != nil {
			t.Errorf("first join: %v", err)
			done = -1
			return
		}
		heldID = conn.ID()
		conn.Leave(th)
		done = 1
	})
	stepUntil(t, c.Env, 50*sim.Millisecond, func() bool { return done != 0 })

	// The zone outlives the connection: a second identity of the same
	// tenant is refused even though no connection is live. Dial from the
	// same host as the first identity so the fresh response region cannot
	// alias the parked one (per-host address spaces restart identically).
	done = 0
	c.Hosts[1].Spawn("bulk1", func(th *host.Thread) {
		sig := sim.NewSignal(c.Env)
		if _, err := s.JoinTenant(th, dir, sig, bulk); err == nil {
			t.Error("second identity admitted while the parked zone holds the quota")
		}
		if conns, _ := m.Live(bulk); conns != 1 {
			t.Errorf("live = %d, want 1 (parked zone still charged)", conns)
		}
		// Forgetting the parked identity releases the charge.
		s.Forget(heldID)
		if conns, _ := m.Live(bulk); conns != 0 {
			t.Errorf("live after Forget = %d, want 0", conns)
		}
		if _, err := s.JoinTenant(th, dir, sig, bulk); err != nil {
			t.Errorf("join after Forget: %v", err)
		}
		done = 1
	})
	stepUntil(t, c.Env, 50*sim.Millisecond, func() bool { return done != 0 })
}
