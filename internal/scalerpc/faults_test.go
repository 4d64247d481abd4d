package scalerpc

import (
	"testing"

	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// TestDropScenarioZeroLostRPCs is the headline acceptance test: a 1% uniform
// drop rate across every link, and every client keeps completing RPCs for the
// whole run — drops are recovered by RC retransmission (NAK or timeout), not
// surfaced as lost calls, and nobody gets evicted over transient loss.
func TestDropScenarioZeroLostRPCs(t *testing.T) {
	c, s := buildServer(3, nil)
	defer c.Close()
	p := c.InstallFaults(faults.DropAll("drop1pct", 0.01))
	horizon := 2 * sim.Millisecond
	res1 := spawnClients(c, s, 1, 8, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 1}, horizon)
	res2 := spawnClients(c, s, 2, 8, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 2}, horizon)
	c.Env.RunUntil(horizon + 2*sim.Millisecond)

	if p.Stats.Drops == 0 {
		t.Fatal("scenario injected no drops — test proves nothing")
	}
	var total uint64
	for i, r := range append(res1, res2...) {
		if r == nil {
			t.Fatalf("driver %d never finished (an RPC was lost, not recovered)", i)
		}
		if r.Completed == 0 {
			t.Fatalf("driver %d completed nothing under 1%% loss", i)
		}
		total += r.Completed
	}
	if total < 500 {
		t.Fatalf("completed only %d ops under 1%% loss", total)
	}
	var retrans uint64
	for _, h := range c.Hosts {
		retrans += h.NIC.Stats.QPRetransmits
	}
	if retrans == 0 {
		t.Fatal("no RC retransmissions despite injected drops")
	}
	if s.Stats.Evictions != 0 {
		t.Fatalf("Evictions = %d under recoverable loss, want 0", s.Stats.Evictions)
	}
	if s.Stats.Switches == 0 {
		t.Fatal("no context switches (workload degenerate)")
	}
}

// TestNodeCrashEvictsAndRegroups crashes one client host mid-run: the server
// must notice (failed writes / probe to the silent clients error the QP),
// evict the dead clients within two context-switch rounds of the first
// post-crash switch, and regroup the survivors.
func TestNodeCrashEvictsAndRegroups(t *testing.T) {
	c, s := buildServer(3, nil)
	defer c.Close()
	crashAt := sim.Time(sim.Millisecond)
	sc := &faults.Scenario{
		Name:    "crash",
		Crashes: []faults.Crash{{Node: 2, At: int64(crashAt)}},
		// Fast retry budget so a dead peer is detected well within a slice.
		NIC: faults.NICTuning{RetransmitTimeoutNs: 5000, RetryCount: 3},
	}
	p := c.InstallFaults(sc)
	var crashed bool
	var switchesAtCrash, regroupsAtCrash uint64
	p.OnCrash(func(int) {
		crashed = true
		switchesAtCrash = s.Stats.Switches
		regroupsAtCrash = s.Stats.Regroups
	})
	horizon := 4 * sim.Millisecond
	live := spawnClients(c, s, 1, 8, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 1}, horizon)
	// The doomed clients stop driving when their node dies (the process
	// crashed with it); their server-side state must be cleaned up remotely.
	for i := 0; i < 8; i++ {
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(c.Hosts[2], sig)
		c.Hosts[2].Spawn("doomed", func(th *host.Thread) {
			rpccore.RunDriver(th, []rpccore.Conn{conn},
				rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 2},
				sig, func() bool { return crashed || th.P.Now() >= horizon })
		})
	}
	c.Env.RunUntil(0) // the first boundary places the joiners
	groups := uint64(s.groupCount())

	for end := crashAt; s.Stats.Evictions == 0 && end < crashAt+2*sim.Time(sim.Millisecond); end += sim.Time(5 * sim.Microsecond) {
		c.Env.RunUntil(end)
	}
	if s.Stats.Evictions == 0 {
		t.Fatal("server never evicted the crashed node's clients")
	}
	// "Within two rounds": the dead group's slice must come up (≤1 round),
	// the probe/notify write must error, and the next visit evicts (≤1 more
	// round). +1 covers the switch in flight at the crash instant.
	if d := s.Stats.Switches - switchesAtCrash; d > 2*groups+1 {
		t.Fatalf("first eviction took %d switches (%d groups), want ≤ two rounds", d, groups)
	}

	c.Env.RunUntil(horizon + sim.Millisecond)
	if s.Stats.Evictions != 8 {
		t.Fatalf("Evictions = %d, want all 8 dead clients gone", s.Stats.Evictions)
	}
	if s.Stats.Regroups <= regroupsAtCrash {
		t.Fatal("no regroup after evictions")
	}
	sum := 0
	for _, sz := range s.groupSizes() {
		sum += sz
	}
	if sum != 8 {
		t.Fatalf("group membership = %d after cleanup, want the 8 survivors", sum)
	}
	for i, r := range live {
		if r == nil || r.Completed == 0 {
			t.Fatalf("surviving driver %d starved after the crash", i)
		}
	}
}

// TestClientsReconnectAfterFlap takes the client host's link down for 100µs:
// client QPs error out, Poll notices, and each client reconnects (fresh QP
// pair, warmup re-stage) once the link returns — the server readmits them and
// service resumes.
func TestClientsReconnectAfterFlap(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	flapEnd := sim.Time(600 * sim.Microsecond)
	sc := &faults.Scenario{
		Name:  "flap",
		Flaps: []faults.Flap{{Node: 1, At: int64(500 * sim.Microsecond), DownNs: int64(100 * sim.Microsecond)}},
		NIC:   faults.NICTuning{RetransmitTimeoutNs: 5000, RetryCount: 3},
	}
	c.InstallFaults(sc)
	horizon := 3 * sim.Millisecond
	res := spawnClients(c, s, 1, 12, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 3}, horizon)

	c.Env.RunUntil(flapEnd + sim.Time(100*sim.Microsecond))
	servedMid := s.Stats.Served
	c.Env.RunUntil(horizon + sim.Millisecond)

	if s.Stats.Readmits == 0 {
		t.Fatal("no client reconnected after the flap")
	}
	if s.Stats.Served <= servedMid {
		t.Fatal("no RPCs served after the flap — reconnect did not restore service")
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("driver %d never finished", i)
		}
		if r.Completed == 0 {
			t.Fatalf("driver %d completed nothing across the flap", i)
		}
	}
}

// TestChurnStormKeepsGroupInvariants hammers connect/disconnect while load
// runs: the scheduler must keep merging undersized groups, never dereference
// evicted state (the nil-guard paths), and keep serving the stable clients.
func TestChurnStormKeepsGroupInvariants(t *testing.T) {
	c, s := buildServer(2, nil) // GroupSize 8
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	for i := 0; i < 40; i++ {
		s.Connect(c.Hosts[1], sig)
	}
	horizon := 3 * sim.Millisecond
	// spawnClients connects 8 more (ids 40..47) and drives them the whole
	// time; ids 0..39 stay idle and are churn fodder.
	stable := spawnClients(c, s, 1, 8, rpccore.DriverConfig{Batch: 2, Handler: 1, PayloadSize: 16, Seed: 4}, horizon)
	// Churn: one disconnect every 60µs, a fresh connect every other round —
	// 24 disconnects + 12 connects over ~1.4ms of the run.
	c.Env.Spawn("churn", func(pr *sim.Proc) {
		for k := 0; k < 24; k++ {
			s.Disconnect(uint16(16 + k)) // ids 16..39
			if k%2 == 0 {
				s.Connect(c.Hosts[1], sig)
			}
			pr.Sleep(60 * sim.Microsecond)
		}
	})
	c.Env.RunUntil(horizon + sim.Millisecond)

	if s.Stats.Regroups == 0 {
		t.Fatal("churn never forced a regroup")
	}
	sizes := s.groupSizes()
	sum := 0
	for _, sz := range sizes {
		if sz < 4 && len(sizes) > 1 {
			t.Fatalf("undersized group survived churn: %v", sizes)
		}
		sum += sz
	}
	// 40 initial + 8 driven + 12 churn connects − 24 disconnects.
	if want := 40 + 8 + 12 - 24; sum != want {
		t.Fatalf("membership = %d, want %d", sum, want)
	}
	for i, r := range stable {
		if r == nil || r.Completed == 0 {
			t.Fatalf("stable driver %d starved during churn", i)
		}
	}
	if s.Stats.Evictions != 0 {
		t.Fatalf("Evictions = %d during clean churn, want 0 (no QP ever errored)", s.Stats.Evictions)
	}
}

// TestDisconnectUnknownAndDoubleDisconnect pins the eviction path's
// idempotence: disconnecting a ghost or a twice-removed client must be a
// no-op, not a panic, even with traffic in flight.
func TestDisconnectUnknownAndDoubleDisconnect(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	horizon := sim.Millisecond
	spawnClients(c, s, 1, 8, rpccore.DriverConfig{Batch: 2, Handler: 1, PayloadSize: 16, Seed: 5}, horizon)
	c.Env.At(300*sim.Microsecond, func() {
		s.Disconnect(500) // never existed
		s.Disconnect(3)
		s.Disconnect(3) // already gone
	})
	c.Env.RunUntil(horizon + sim.Millisecond)
	sum := 0
	for _, sz := range s.groupSizes() {
		sum += sz
	}
	if sum != 7 {
		t.Fatalf("membership = %d, want 7", sum)
	}
	if s.Stats.Served == 0 {
		t.Fatal("no service after disconnects")
	}
}

// TestReconnectKeepsPinnedZone: a latency-sensitive client whose QP dies must
// come back still pinned to a reserved zone (or gracefully fall back to the
// rotation if the zones are gone).
func TestReconnectKeepsPinnedZone(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) { cfg.ReservedZones = 2 })
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	pin := s.ConnectLatencySensitive(c.Hosts[1], sig)
	if pin == nil {
		t.Fatal("no reserved zone")
	}
	done := false
	c.Hosts[1].Spawn("pin", func(th *host.Thread) {
		if _, err := pin.SyncCall(th, 1, []byte("before"), 0); err != nil {
			t.Errorf("pre-reconnect call: %v", err)
			return
		}
		pin.reconnect(th)
		if pin.State() != StateProcess {
			t.Errorf("state after pinned reconnect = %v, want PROCESS", pin.State())
		}
		if _, err := pin.SyncCall(th, 1, []byte("after"), 0); err != nil {
			t.Errorf("post-reconnect call: %v", err)
			return
		}
		done = true
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if !done {
		t.Fatal("pinned client did not complete both calls")
	}
	if pin.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", pin.Reconnects)
	}
	if s.Stats.Readmits != 1 {
		t.Fatalf("Readmits = %d, want 1", s.Stats.Readmits)
	}
}
