package rawrpc_test

import (
	"bytes"
	"runtime"
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

func echoHandler(t *host.Thread, clientID uint16, req []byte, out []byte) int {
	t.Work(100)
	return copy(out, req)
}

func TestEchoRoundTrip(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := rawrpc.DefaultServerConfig()
	cfg.Workers = 2
	cfg.MaxClients = 8
	s := rawrpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)
	s.Start()

	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)

	var got []byte
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		if !conn.TrySend(th, 1, []byte("ping-payload"), 77) {
			t.Error("TrySend failed")
			return
		}
		for got == nil {
			conn.Poll(th, func(r rpccore.Response) {
				if r.ReqID != 77 {
					t.Errorf("ReqID = %d", r.ReqID)
				}
				if r.Err {
					t.Error("unexpected error response")
				}
				got = append([]byte(nil), r.Payload...)
			})
			if got == nil {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
	})
	c.Env.RunUntil(5 * sim.Millisecond)
	if !bytes.Equal(got, []byte("ping-payload")) {
		t.Fatalf("response = %q", got)
	}
}

func TestUnknownHandlerReturnsError(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := rawrpc.DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 4
	s := rawrpc.NewServer(c.Hosts[0], cfg)
	s.Start()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	var isErr, done bool
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		conn.TrySend(th, 200, []byte("x"), 1)
		for !done {
			conn.Poll(th, func(r rpccore.Response) { isErr, done = r.Err, true })
			if !done {
				sig.WaitTimeout(th.P, 10*sim.Microsecond)
			}
		}
	})
	c.Env.RunUntil(5 * sim.Millisecond)
	if !done || !isErr {
		t.Fatalf("done=%v err=%v, want error response", done, isErr)
	}
}

func TestSlotWindowLimitsOutstanding(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := rawrpc.DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 4
	cfg.BlocksPerClient = 4
	s := rawrpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)
	s.Start()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		sent := 0
		for conn.TrySend(th, 1, []byte("y"), uint64(sent)) {
			sent++
		}
		if sent != 4 {
			t.Errorf("sent %d before window closed, want 4", sent)
		}
		if conn.Outstanding() != 4 || conn.SlotCount() != 4 {
			t.Errorf("outstanding=%d slots=%d", conn.Outstanding(), conn.SlotCount())
		}
	})
	c.Env.RunUntil(1 * sim.Millisecond)
}

func TestManyClientsManyRequests(t *testing.T) {
	c := cluster.New(cluster.Default(3))
	defer c.Close()
	cfg := rawrpc.DefaultServerConfig()
	cfg.Workers = 4
	cfg.MaxClients = 32
	s := rawrpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)
	s.Start()

	horizon := 2 * sim.Millisecond
	results := make([]rpccore.DriverStats, 2)
	for hi := 1; hi <= 2; hi++ {
		hi := hi
		sig := sim.NewSignal(c.Env)
		var conns []rpccore.Conn
		for i := 0; i < 8; i++ {
			conns = append(conns, s.Connect(c.Hosts[hi], sig))
		}
		c.Hosts[hi].Spawn("driver", func(th *host.Thread) {
			results[hi-1] = rpccore.RunDriver(th, conns, rpccore.DriverConfig{
				Batch: 4, Handler: 1, PayloadSize: 32, Seed: uint64(hi),
			}, sig, func() bool { return th.P.Now() >= horizon })
		})
	}
	c.Env.RunUntil(horizon + sim.Millisecond)
	total := results[0].Completed + results[1].Completed
	if total < 1000 {
		t.Fatalf("completed only %d ops in 2ms across 16 clients", total)
	}
	if results[0].BatchLat.Count() == 0 {
		t.Fatal("no batch latencies recorded")
	}
	med := results[0].BatchLat.Median()
	if med < 2000 || med > 200000 {
		t.Fatalf("median batch latency %d ns implausible", med)
	}
	if s.Served() != total {
		// Some responses may still be in flight at the horizon.
		if s.Served() < total {
			t.Fatalf("server served %d < client completions %d", s.Served(), total)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		c := cluster.New(cluster.Default(2))
		defer c.Close()
		cfg := rawrpc.DefaultServerConfig()
		cfg.Workers = 2
		cfg.MaxClients = 8
		s := rawrpc.NewServer(c.Hosts[0], cfg)
		s.Register(1, echoHandler)
		s.Start()
		sig := sim.NewSignal(c.Env)
		var conns []rpccore.Conn
		for i := 0; i < 4; i++ {
			conns = append(conns, s.Connect(c.Hosts[1], sig))
		}
		var st rpccore.DriverStats
		c.Hosts[1].Spawn("driver", func(th *host.Thread) {
			st = rpccore.RunDriver(th, conns, rpccore.DriverConfig{
				Batch: 2, Handler: 1, PayloadSize: 32, Seed: 9,
			}, sig, func() bool { return th.P.Now() >= sim.Millisecond })
		})
		c.Env.RunUntil(2 * sim.Millisecond)
		return st.Completed
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("runs differ: %d vs %d", a, b)
	}
}

// TestAllocBudgetRawWriteRoundTrip pins what one request→response costs in
// allocations on a warm connection, whole process (client thread, server
// worker, both NICs). The client's post is allocation-free — the request
// is framed straight into its staging block — and what is left is the
// server's reply-cache entry and its copy of the response.
func TestAllocBudgetRawWriteRoundTrip(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := rawrpc.DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 4
	s := rawrpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, echoHandler)
	s.Start()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)

	const warm, measured = 200, 1000
	var before, after runtime.MemStats
	trips := 0
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		payload := make([]byte, 32)
		onResp := func(rpccore.Response) { trips++ }
		for trips < warm+measured {
			if trips == warm {
				runtime.ReadMemStats(&before)
			}
			if !conn.TrySend(th, 1, payload, uint64(trips)) {
				t.Error("TrySend failed on an empty window")
				return
			}
			for sent := trips; trips == sent; {
				if conn.Poll(th, onResp) == 0 {
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
			}
		}
		runtime.ReadMemStats(&after)
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if trips != warm+measured {
		t.Fatalf("%d round trips completed, want %d", trips, warm+measured)
	}
	// Measured 2.06; one more allocation per operation reads ≥ 3.
	if got := float64(after.Mallocs-before.Mallocs) / measured; got > 2.5 {
		t.Errorf("%.2f allocs per RawWrite round trip, want ≤ 2.5", got)
	}
}
