package scalerpc

import (
	"bytes"
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

func echoHandler(t *host.Thread, clientID uint16, req []byte, out []byte) int {
	t.Work(100)
	return copy(out, req)
}

// buildServer creates a ScaleRPC server on host 0 of a fresh cluster.
func buildServer(hosts int, mutate func(*ServerConfig)) (*cluster.Cluster, *Server) {
	c := cluster.New(cluster.Default(hosts))
	cfg := DefaultServerConfig()
	cfg.Workers = 4
	cfg.GroupSize = 8
	cfg.TimeSlice = 50 * sim.Microsecond
	cfg.BlocksPerClient = 8
	cfg.MaxClients = 256
	if mutate != nil {
		mutate(&cfg)
	}
	s := NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)
	s.Start()
	return c, s
}

// spawnClients launches n driver threads of m conns each on host hi.
func spawnClients(c *cluster.Cluster, s *Server, hi, n int, dcfg rpccore.DriverConfig, horizon sim.Time) []*rpccore.DriverStats {
	out := make([]*rpccore.DriverStats, n)
	for i := 0; i < n; i++ {
		i := i
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(c.Hosts[hi], sig)
		c.Hosts[hi].Spawn("drv", func(th *host.Thread) {
			st := rpccore.RunDriver(th, []rpccore.Conn{conn}, dcfg, sig, func() bool {
				return th.P.Now() >= horizon
			})
			out[i] = &st
		})
	}
	return out
}

func TestSingleGroupEchoRoundTrip(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)

	var got []byte
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		if conn.State() != StateIdle {
			t.Error("new conn must be IDLE")
		}
		if !conn.TrySend(th, 1, []byte("warm me up"), 5) {
			t.Error("TrySend failed")
			return
		}
		if conn.State() != StateWarmup {
			t.Errorf("state after first send = %v, want WARMUP", conn.State())
		}
		for got == nil {
			conn.Poll(th, func(r rpccore.Response) {
				got = append([]byte(nil), r.Payload...)
			})
			if got == nil {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
		if conn.State() != StateProcess {
			t.Errorf("state after first response = %v, want PROCESS", conn.State())
		}
		// Second call goes direct (PROCESS path).
		conn.TrySend(th, 1, []byte("direct"), 6)
	})
	c.Env.RunUntil(5 * sim.Millisecond)
	if !bytes.Equal(got, []byte("warm me up")) {
		t.Fatalf("response = %q", got)
	}
	if s.Stats.WarmupReads == 0 {
		t.Fatal("no warmup RDMA READs issued")
	}
}

func TestMultiGroupAllClientsProgress(t *testing.T) {
	c, s := buildServer(3, nil)
	defer c.Close()
	horizon := 2 * sim.Millisecond
	// 24 clients with group size 8 → 3 groups, real context switching.
	res1 := spawnClients(c, s, 1, 12, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 1}, horizon)
	res2 := spawnClients(c, s, 2, 12, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 2}, horizon)
	c.Env.RunUntil(horizon + sim.Millisecond)

	if s.groupCount() < 3 {
		t.Fatalf("groups = %d, want ≥3", s.groupCount())
	}
	if s.Stats.Switches == 0 {
		t.Fatal("no context switches with 3 groups")
	}
	var total uint64
	for _, r := range append(res1, res2...) {
		if r == nil {
			t.Fatal("a driver never finished")
		}
		if r.Completed == 0 {
			t.Fatal("a client made no progress across context switches")
		}
		total += r.Completed
	}
	if total < 500 {
		t.Fatalf("completed only %d ops", total)
	}
	if s.Stats.Piggybacked == 0 {
		t.Fatal("no piggybacked context_switch_events")
	}
}

func TestVirtualizedMappingPoolFootprintConstant(t *testing.T) {
	// The whole point of virtualized mapping: pool bytes depend on group
	// size, not client count.
	_, s8 := buildServer(2, nil)
	poolZones := func(s *Server) int { return s.Cfg.GroupSize*3/2 + 1 }
	if poolZones(s8) != 13 {
		t.Fatalf("zones = %d", poolZones(s8))
	}
	// Connecting many more clients than zones must not grow the pool (it
	// can't: the pools were allocated in NewServer).
	c, s := buildServer(2, nil)
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	for i := 0; i < 100; i++ {
		s.Connect(c.Hosts[1], sig)
	}
	c.Env.RunUntil(0) // the first boundary places the joiners
	if got := s.groupCount(); got != 13 {
		t.Fatalf("100 clients / group 8 → %d groups, want 13", got)
	}
}

func TestContextSwitchNotifiesIdleClients(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	// Two groups of mostly idle clients (long think times), so switches
	// often find members with nothing in flight and must notify them via
	// explicit control writes.
	horizon := 2 * sim.Millisecond
	spawnClients(c, s, 1, 16, rpccore.DriverConfig{
		Batch: 1, Handler: 1, PayloadSize: 16, Seed: 3,
		ThinkTime: func(r *stats.RNG) sim.Duration { return 300 * sim.Microsecond },
	}, horizon)
	c.Env.RunUntil(horizon + sim.Millisecond)
	if s.Stats.Switches == 0 {
		t.Fatal("no switches")
	}
	if s.Stats.Notifies+s.Stats.Piggybacked == 0 {
		t.Fatal("nobody was told about context switches")
	}
}

func TestClientStateMachineSwitchCycle(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	horizon := 1 * sim.Millisecond
	sig := sim.NewSignal(c.Env)
	// Enough clients for 2 groups.
	conns := make([]*Conn, 16)
	for i := range conns {
		conns[i] = s.Connect(c.Hosts[1], sig)
	}
	sawIdleAgain := false
	c.Hosts[1].Spawn("drv", func(th *host.Thread) {
		rpcConns := make([]rpccore.Conn, len(conns))
		for i, cn := range conns {
			rpcConns[i] = cn
		}
		rpccore.RunDriver(th, rpcConns, rpccore.DriverConfig{Batch: 2, Handler: 1, PayloadSize: 16, Seed: 4},
			sig, func() bool {
				for _, cn := range conns {
					if cn.Switches > 0 {
						sawIdleAgain = true
					}
				}
				return th.P.Now() >= horizon
			})
	})
	c.Env.RunUntil(horizon + sim.Millisecond)
	if !sawIdleAgain {
		t.Fatal("no client ever observed a context_switch_event")
	}
}

func TestLegacyModeMarksAndExecutesLongCalls(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) {
		cfg.LegacyThreshold = 5 * sim.Microsecond
	})
	defer c.Close()
	s.Register(2, func(t *host.Thread, id uint16, req, out []byte) int {
		t.Work(50 * sim.Microsecond) // far over threshold
		out[0] = 0xEE
		return 1
	})
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	got := 0
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		next := uint64(0)
		for got < 4 {
			if conn.Outstanding() == 0 {
				for !conn.TrySend(th, 2, []byte("slow"), next) {
					conn.Poll(th, func(r rpccore.Response) {})
					sig.WaitTimeout(th.P, 20*sim.Microsecond)
				}
				next++
			}
			conn.Poll(th, func(r rpccore.Response) {
				if len(r.Payload) == 1 && r.Payload[0] == 0xEE {
					got++
				}
			})
			sig.WaitTimeout(th.P, 20*sim.Microsecond)
		}
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if got < 4 {
		t.Fatalf("completed %d long calls", got)
	}
	if s.Stats.LegacyMarked != 1 {
		t.Fatalf("LegacyMarked = %d, want 1", s.Stats.LegacyMarked)
	}
	if s.Stats.LegacyCalls < 2 {
		t.Fatalf("LegacyCalls = %d, want ≥2 (calls after marking)", s.Stats.LegacyCalls)
	}
}

func TestGroupPlacementAndSizes(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) { cfg.GroupSize = 40 })
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	for i := 0; i < 100; i++ {
		s.Connect(c.Hosts[1], sig)
	}
	c.Env.RunUntil(0) // the first boundary places the joiners
	sizes := s.groupSizes()
	if len(sizes) != 3 || sizes[0] != 40 || sizes[1] != 40 || sizes[2] != 20 {
		t.Fatalf("group sizes = %v, want [40 40 20]", sizes)
	}
}

func TestDisconnectTriggersLazyMerge(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) {
		cfg.GroupSize = 8
		cfg.Dynamic = false
	})
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conns := make([]*Conn, 16)
	for i := range conns {
		conns[i] = s.Connect(c.Hosts[1], sig)
	}
	c.Env.RunUntil(0) // the first boundary places the joiners
	// Kill most of group 0 (ids 0..7): its size drops below G/2 = 4.
	for id := uint16(0); id < 6; id++ {
		s.Disconnect(id)
	}
	// Drive the remaining clients so the scheduler switches and regroups.
	horizon := 1 * sim.Millisecond
	c.Hosts[1].Spawn("drv", func(th *host.Thread) {
		rc := make([]rpccore.Conn, 0, 10)
		for _, cn := range conns[6:] {
			rc = append(rc, cn)
		}
		rpccore.RunDriver(th, rc, rpccore.DriverConfig{Batch: 1, Handler: 1, PayloadSize: 8, Seed: 5},
			sig, func() bool { return th.P.Now() >= horizon })
	})
	c.Env.RunUntil(horizon + sim.Millisecond)
	for _, sz := range s.groupSizes() {
		if sz < 4 && s.groupCount() > 1 {
			t.Fatalf("undersized group survived merges: %v", s.groupSizes())
		}
	}
	if s.Stats.Regroups == 0 {
		t.Fatal("no regroup happened")
	}
}

func TestGlobalSyncAlignsSwitchPhases(t *testing.T) {
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	cfg.GroupSize = 4
	cfg.TimeSlice = 100 * sim.Microsecond
	cfg.SyncPeriod = 2 * sim.Millisecond
	var servers []*Server
	for i := 0; i < 2; i++ {
		s := NewServer(c.Hosts[i], cfg)
		s.Register(1, echoHandler)
		s.Start()
		servers = append(servers, s)
	}
	g := NewSyncGroup(servers)
	// Both servers need ≥2 groups so they actually switch.
	for i, s := range servers {
		horizon := 20 * sim.Millisecond
		for j := 0; j < 8; j++ {
			sig := sim.NewSignal(c.Env)
			conn := s.Connect(c.Hosts[2+i], sig)
			c.Hosts[2+i].Spawn("drv", func(th *host.Thread) {
				rpccore.RunDriver(th, []rpccore.Conn{conn},
					rpccore.DriverConfig{Batch: 1, Handler: 1, PayloadSize: 16, Seed: uint64(j)},
					sig, func() bool { return th.P.Now() >= horizon })
			})
		}
	}
	c.Env.RunUntil(25 * sim.Millisecond)
	if g.Exchanges == 0 {
		t.Fatal("no sync exchanges happened")
	}
	// After several exchanges the servers' next-switch phases should be
	// within a small fraction of the slice.
	a := servers[0].NextSwitchAt() % cfg.TimeSlice
	b := servers[1].NextSwitchAt() % cfg.TimeSlice
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > cfg.TimeSlice/2 {
		diff = cfg.TimeSlice - diff
	}
	if diff > cfg.TimeSlice/5 {
		t.Fatalf("switch phases diverge by %d ns (slice %d)", diff, cfg.TimeSlice)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		c, s := buildServer(2, nil)
		defer c.Close()
		horizon := 1 * sim.Millisecond
		res := spawnClients(c, s, 1, 10, rpccore.DriverConfig{Batch: 2, Handler: 1, PayloadSize: 32, Seed: 7}, horizon)
		c.Env.RunUntil(horizon + sim.Millisecond)
		var total uint64
		for _, r := range res {
			total += r.Completed
		}
		return total, s.Stats.Switches
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 || c1 == 0 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestLatencySensitiveClientBypassesRotation(t *testing.T) {
	c, s := buildServer(3, func(cfg *ServerConfig) {
		cfg.ReservedZones = 2
	})
	defer c.Close()
	horizon := 3 * sim.Millisecond

	// 24 regular clients fill 3 groups so real switching happens.
	regular := spawnClients(c, s, 1, 24, rpccore.DriverConfig{Batch: 4, Handler: 1, PayloadSize: 32, Seed: 1}, horizon)

	// One pinned client alongside them.
	sig := sim.NewSignal(c.Env)
	pin := s.ConnectLatencySensitive(c.Hosts[2], sig)
	if pin == nil {
		t.Fatal("no reserved zone available")
	}
	if pin.State() != StateProcess {
		t.Fatalf("pinned conn state = %v, want PROCESS", pin.State())
	}
	var pinStats rpccore.DriverStats
	c.Hosts[2].Spawn("pin", func(th *host.Thread) {
		pinStats = rpccore.RunDriver(th, []rpccore.Conn{pin}, rpccore.DriverConfig{
			Batch: 1, Handler: 1, PayloadSize: 32, Seed: 9,
		}, sig, func() bool { return th.P.Now() >= horizon })
	})
	c.Env.RunUntil(horizon + sim.Millisecond)

	if s.Stats.Switches == 0 {
		t.Fatal("no context switches happened")
	}
	if pin.Switches != 0 {
		t.Fatalf("pinned client saw %d context_switch_events", pin.Switches)
	}
	if s.Stats.PinnedServed == 0 {
		t.Fatal("no requests served on reserved zones")
	}
	if pinStats.Completed == 0 {
		t.Fatal("pinned client made no progress")
	}
	// The pinned client's worst batch must be far below the rotation
	// period (its regular peers wait out whole rotations).
	rotation := int64(3 * 50 * sim.Microsecond)
	if max := pinStats.BatchLat.Max(); max > rotation/2 {
		t.Fatalf("pinned max latency %dns, want ≪ rotation %dns", max, rotation)
	}
	var regularMax int64
	for _, r := range regular {
		if r != nil && r.BatchLat.Max() > regularMax {
			regularMax = r.BatchLat.Max()
		}
	}
	if regularMax <= pinStats.BatchLat.Max() {
		t.Fatalf("regular max (%d) should exceed pinned max (%d)", regularMax, pinStats.BatchLat.Max())
	}
}

func TestReservedZonesExhaust(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) {
		cfg.ReservedZones = 1
	})
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	if s.ConnectLatencySensitive(c.Hosts[1], sig) == nil {
		t.Fatal("first pinned connect failed")
	}
	if s.ConnectLatencySensitive(c.Hosts[1], sig) != nil {
		t.Fatal("second pinned connect should fail (1 reserved zone)")
	}
	// Regular connects still work.
	if s.Connect(c.Hosts[1], sig) == nil {
		t.Fatal("regular connect failed")
	}
}

func TestSyncAndAsyncCallAPI(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	fail := ""
	c.Hosts[1].Spawn("api-client", func(th *host.Thread) {
		// Synchronous call.
		resp, err := conn.SyncCall(th, 1, []byte("sync-payload"), 0)
		if err != nil || string(resp) != "sync-payload" {
			fail = "SyncCall failed"
			return
		}
		// A batch of asynchronous calls collected via PollCompletion.
		handles := map[uint64]bool{}
		for i := 0; i < 6; i++ {
			handles[conn.AsyncCall(th, 1, []byte("async"))] = true
		}
		got := 0
		for got < 6 {
			for _, comp := range conn.PollCompletion(th, 8) {
				if !handles[comp.Handle] {
					fail = "unknown completion handle"
					return
				}
				if string(comp.Payload) != "async" {
					fail = "async payload corrupted"
					return
				}
				got++
			}
			if got < 6 {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
		// Unknown handler surfaces as a remote error.
		if _, err := conn.SyncCall(th, 200, []byte("x"), 0); err == nil {
			fail = "remote error not reported"
		}
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if fail != "" {
		t.Fatal(fail)
	}
}

func TestSyncCallTimeout(t *testing.T) {
	c, s := buildServer(2, func(cfg *ServerConfig) {
		cfg.LegacyThreshold = sim.Second // keep the slow handler inline
	})
	defer c.Close()
	s.Register(3, func(th *host.Thread, id uint16, req, out []byte) int {
		th.Work(5 * sim.Millisecond) // far beyond the timeout
		return 0
	})
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	var err error
	c.Hosts[1].Spawn("cli", func(th *host.Thread) {
		_, err = conn.SyncCall(th, 3, []byte("slow"), 200*sim.Microsecond)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestLateSweepAnswersSwitchRacers(t *testing.T) {
	// Under continuous multi-group load, some requests inevitably race the
	// context switch; the late sweep must answer them (LateServed > 0) so
	// client-side retries stay rare.
	c, s := buildServer(3, nil)
	defer c.Close()
	horizon := 3 * sim.Millisecond
	res := spawnClients(c, s, 1, 24, rpccore.DriverConfig{Batch: 8, Handler: 1, PayloadSize: 32, Seed: 11}, horizon)
	c.Env.RunUntil(horizon + sim.Millisecond)
	if s.Stats.Switches == 0 {
		t.Fatal("no switches")
	}
	if s.Stats.LateServed == 0 {
		t.Fatal("late sweep never served anything under load")
	}
	var total uint64
	for _, r := range res {
		total += r.Completed
	}
	if total == 0 {
		t.Fatal("no progress")
	}
}

func TestWarmupLargeMessagesFetchOnlyTheirTail(t *testing.T) {
	// A payload whose encoded span exceeds half the block is fetched like
	// any other: one warm-up READ of the right-aligned tail the endpoint
	// entry advertises, never the whole block. It must round-trip intact
	// through staging, fetch, and response.
	c, s := buildServer(2, nil)
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	payload := make([]byte, 3000) // span ≈ 3 KB ≥ BlockSize/2
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	c.Hosts[1].Spawn("cli", func(th *host.Thread) {
		resp, err := conn.SyncCall(th, 1, payload, 0)
		if err != nil {
			t.Errorf("SyncCall: %v", err)
			return
		}
		got = resp
	})
	c.Env.RunUntil(50 * sim.Millisecond)
	if !bytes.Equal(got, payload) {
		t.Fatalf("large warmup payload corrupted (%d bytes back)", len(got))
	}
	_, span := rpcwire.EncodedSpan(rpcwire.BlockSize, rpcwire.HeaderSize+len(payload))
	if s.Stats.WarmupReads != 1 || s.Stats.WarmupBytes != uint64(span) {
		t.Fatalf("%d warm-up READs moved %d bytes, want one of the %d-byte frame span",
			s.Stats.WarmupReads, s.Stats.WarmupBytes, span)
	}
}

func TestVirtualizedMappingBoundsDDIOAllocs(t *testing.T) {
	// The Figure 10 mechanism as a unit test: with many clients, RawWrite's
	// per-client pools force DDIO write-allocates at the server, while
	// ScaleRPC's single physical pool stays resident (allocs ≈ 0 after
	// warmup).
	measure := func(scale bool) float64 {
		c := cluster.New(cluster.Default(12))
		defer c.Close()
		var connect func(i int, sig *sim.Signal) rpccore.Conn
		if scale {
			cfg := DefaultServerConfig()
			srv := NewServer(c.Hosts[0], cfg)
			srv.Register(1, echoHandler)
			srv.Start()
			connect = func(i int, sig *sim.Signal) rpccore.Conn { return srv.Connect(c.Hosts[1+i%11], sig) }
		} else {
			cfg := rawrpc.DefaultServerConfig()
			srv := rawrpc.NewServer(c.Hosts[0], cfg)
			srv.Register(1, echoHandler)
			srv.Start()
			connect = func(i int, sig *sim.Signal) rpccore.Conn { return srv.Connect(c.Hosts[1+i%11], sig) }
		}
		horizon := 3 * sim.Millisecond
		for i := 0; i < 320; i++ {
			i := i
			sig := sim.NewSignal(c.Env)
			conn := connect(i, sig)
			c.Hosts[1+i%11].Spawn("drv", func(th *host.Thread) {
				rpccore.RunDriver(th, []rpccore.Conn{conn}, rpccore.DriverConfig{
					Batch: 8, Handler: 1, PayloadSize: 32, Seed: uint64(i),
					StartDelay: sim.Duration(i%64) * 311,
				}, sig, func() bool { return th.P.Now() >= horizon })
			})
		}
		c.Env.RunUntil(sim.Millisecond)
		startAllocs := c.Hosts[0].LLC.Snapshot().DMAAllocs
		startMsgs := c.Hosts[0].NIC.Stats.InMessages
		c.Env.RunUntil(horizon)
		allocs := c.Hosts[0].LLC.Snapshot().DMAAllocs - startAllocs
		msgs := c.Hosts[0].NIC.Stats.InMessages - startMsgs
		if msgs == 0 {
			return 0
		}
		return float64(allocs) / float64(msgs)
	}
	raw := measure(false)
	scale := measure(true)
	if scale >= raw/2 {
		t.Fatalf("ScaleRPC alloc rate %.4f should be far below RawWrite's %.4f", scale, raw)
	}
}

func TestCrossClientPayloadIsolation(t *testing.T) {
	// Every client embeds its identity in every request; echoes must never
	// leak between clients across pools, switches, and retries.
	c, s := buildServer(3, nil)
	defer c.Close()
	horizon := 2 * sim.Millisecond
	fails := make([]int, 20)
	for i := 0; i < 20; i++ {
		i := i
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(c.Hosts[1+i%2], sig)
		c.Hosts[1+i%2].Spawn("cli", func(th *host.Thread) {
			tag := byte(0x40 + i)
			payload := bytes.Repeat([]byte{tag}, 24)
			next := uint64(0)
			for th.P.Now() < horizon {
				for conn.Outstanding() < 4 {
					if !conn.TrySend(th, 1, payload, next) {
						break
					}
					next++
				}
				conn.Poll(th, func(r rpccore.Response) {
					for _, b := range r.Payload {
						if b != tag {
							fails[i]++
							return
						}
					}
				})
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		})
	}
	c.Env.RunUntil(horizon + sim.Millisecond)
	for i, f := range fails {
		if f > 0 {
			t.Fatalf("client %d received %d foreign/corrupted payloads", i, f)
		}
	}
}
