package scalerpc_test

import (
	"encoding/binary"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// The work-conserving rotation, end to end: an idle server with backlog
// takes early switches and its tail falls; saturated, link-bound and
// latency-bound closed loops take none and serve what the parent build
// served; replies stay right while slices are being cut; failure detection
// keeps its wall-clock pace.

// rotationServer is the paper's server (ten workers, 100 µs slices) with
// groups of groupSize on host 0 of a hosts-host cluster. clockOnly puts it
// in a SyncGroup with an idle second server on the last host, which is how
// a deployment gets the clock-driven rotation: the reference the early
// switch is compared against.
func rotationServer(hosts, groupSize int, seed uint64, clockOnly bool) (*cluster.Cluster, *scalerpc.Server) {
	ccfg := cluster.Default(hosts)
	ccfg.Seed = seed
	c := cluster.New(ccfg)
	cfg := scalerpc.DefaultServerConfig()
	cfg.GroupSize = groupSize
	s := scalerpc.NewServer(c.Hosts[0], cfg)
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return copy(out, req)
	})
	// A get answers a short request with 2 KB, a put the reverse.
	s.Register(2, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return 2048
	})
	s.Register(3, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return 8
	})
	s.Start()
	if clockOnly {
		peer := scalerpc.NewServer(c.Hosts[hosts-1], cfg)
		peer.Start()
		scalerpc.NewSyncGroup([]*scalerpc.Server{s, peer})
	}
	return c, s
}

// openLoopResult is what one open-loop run measured.
type openLoopResult struct {
	sent, answered, wrong uint64
	lat                   *stats.Histogram // completion minus intended arrival, ns
}

// runOpenLoop drives clients Poisson arrival streams of size-byte echoes at
// rate requests per second in total until horizon, then drains. Every
// payload is a function of (client, request id) and every reply is compared
// with it byte for byte.
func runOpenLoop(c *cluster.Cluster, s *scalerpc.Server, clients, clientHosts, size int, rate float64, seed uint64, horizon sim.Time) openLoopResult {
	res := openLoopResult{lat: stats.NewHistogram()}
	fill := func(buf []byte, client int, id uint64) {
		rng := stats.NewRNG(uint64(client)<<32 ^ id ^ seed<<48)
		for off := 0; off+8 <= len(buf); off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], rng.Uint64())
		}
	}
	meanGap := float64(clients) / rate * 1e9
	for i := 0; i < clients; i++ {
		i := i
		h := c.Hosts[1+i%clientHosts]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		h.Spawn("open-loop", func(th *host.Thread) {
			rng := stats.NewRNG(seed*1_000_003 + uint64(i))
			next := sim.Time(rng.Exp(meanGap))
			var due []sim.Time // intended arrivals not yet accepted
			arrived := map[uint64]sim.Time{}
			var id uint64
			req, want := make([]byte, size), make([]byte, size)
			for th.P.Now() < horizon+2*sim.Millisecond {
				now := th.P.Now()
				for next <= now && next < horizon {
					due = append(due, next)
					next += sim.Time(rng.Exp(meanGap))
				}
				for len(due) > 0 {
					fill(req, i, id+1)
					if !conn.TrySend(th, 1, req, id+1) {
						break
					}
					id++
					arrived[id] = due[0]
					due = due[1:]
					res.sent++
				}
				conn.Poll(th, func(r rpccore.Response) {
					at, ok := arrived[r.ReqID]
					if !ok {
						res.wrong++
						return
					}
					delete(arrived, r.ReqID)
					res.answered++
					res.lat.Record(int64(th.P.Now() - at))
					fill(want, i, r.ReqID)
					if r.Err || string(r.Payload) != string(want) {
						res.wrong++
					}
				})
				if now >= horizon && len(arrived) == 0 {
					return
				}
				wait := 5 * sim.Microsecond
				if gap := next - th.P.Now(); next < horizon && gap > 0 && gap < wait {
					wait = gap
				}
				th.WaitSignal(sig, wait)
			}
		})
	}
	c.Env.RunUntil(horizon + 2*sim.Millisecond)
	return res
}

// TestEarlySwitchCutsOpenLoopTail: 64 clients in two groups offer a third
// of the server's capacity. The backlog of a slice is gone in its first
// tick; the clock-driven rotation then holds the other group's requests in
// the warmup pool for the rest of the 100 µs.
func TestEarlySwitchCutsOpenLoopTail(t *testing.T) {
	run := func(clockOnly bool) (openLoopResult, scalerpc.Stats) {
		c, s := rotationServer(6, 32, 1, clockOnly)
		defer c.Close()
		r := runOpenLoop(c, s, 64, 4, 32, 2e6, 1, 4*sim.Millisecond)
		return r, s.Stats
	}
	fixed, fixedStats := run(true)
	early, earlyStats := run(false)
	for name, r := range map[string]openLoopResult{"clock-driven": fixed, "work-conserving": early} {
		if r.wrong != 0 || r.answered != r.sent || r.sent < 7000 {
			t.Fatalf("%s: sent %d, answered %d, wrong %d", name, r.sent, r.answered, r.wrong)
		}
	}
	if fixedStats.EarlySwitches != 0 {
		t.Fatalf("a SyncGroup member took %d early switches", fixedStats.EarlySwitches)
	}
	if earlyStats.EarlySwitches*4 < earlyStats.Switches {
		t.Fatalf("%d early of %d switches at a third of capacity, want at least a quarter", earlyStats.EarlySwitches, earlyStats.Switches)
	}
	fp50, fp99 := fixed.lat.Quantile(0.5), fixed.lat.Quantile(0.99)
	ep50, ep99 := early.lat.Quantile(0.5), early.lat.Quantile(0.99)
	t.Logf("clock-driven p50 %d p99 %d ns over %d switches; work-conserving p50 %d p99 %d ns over %d switches, %d early",
		fp50, fp99, fixedStats.Switches, ep50, ep99, earlyStats.Switches, earlyStats.EarlySwitches)
	if ep99*5 > fp99*4 {
		t.Errorf("p99 %d ns against the clock-driven %d ns, want at least a fifth lower", ep99, fp99)
	}
}

// TestClosedLoopsTakeNoEarlySwitch: the three prototypes the rule's
// conjuncts answer. Each closed loop keeps its server's cores, its link or
// its round trips busy for the whole slice, so no slice is cut and the run
// is the parent build's to the request (served counts taken on 5b7171f).
// Drivers start after the first slice, which serves nobody — group 0 was
// never warmed — and so would rightly be cut.
func TestClosedLoopsTakeNoEarlySwitch(t *testing.T) {
	const horizon = 3 * sim.Millisecond
	for _, tc := range []struct {
		name       string
		clients    int
		groupSize  int
		batch      int
		handlers   []uint8 // client i uses handlers[i%len]
		payload    func(h uint8) int
		wantServed uint64
	}{
		{"saturated: 120 clients, batch 8", 120, 40, 8, []uint8{1}, func(uint8) int { return 32 }, 30181},
		{"link-bound: 2 KB gets beside 2 KB puts", 80, 40, 4, []uint8{2, 3}, func(h uint8) int {
			if h == 3 {
				return 2048
			}
			return 16
		}, 13422},
		{"latency-bound: batch 1", 80, 40, 1, []uint8{1}, func(uint8) int { return 32 }, 25905},
	} {
		c, s := rotationServer(6, tc.groupSize, 1, false)
		for i := 0; i < tc.clients; i++ {
			h := tc.handlers[i%len(tc.handlers)]
			ch := c.Hosts[1+i%4]
			sig := sim.NewSignal(c.Env)
			conn := s.Connect(ch, sig)
			dcfg := rpccore.DriverConfig{Batch: tc.batch, Handler: h, PayloadSize: tc.payload(h), Seed: uint64(i),
				StartDelay: 150*sim.Microsecond + sim.Duration(i%64)*311}
			ch.Spawn("drv", func(th *host.Thread) {
				rpccore.RunDriver(th, []rpccore.Conn{conn}, dcfg, sig, func() bool { return th.P.Now() >= horizon })
			})
		}
		c.Env.RunUntil(horizon)
		if s.Stats.EarlySwitches != 0 {
			t.Errorf("%s: %d early switches of %d", tc.name, s.Stats.EarlySwitches, s.Stats.Switches)
		}
		if s.Stats.Served != tc.wantServed {
			t.Errorf("%s: served %d over %d switches, the parent build served %d", tc.name, s.Stats.Served, s.Stats.Switches, tc.wantServed)
		}
		c.Close()
	}
}

// TestEarlySwitchKeepsRepliesRight: 2 KB echoes at low load — DMA-gathered
// responses, slices cut several times a millisecond — with every reply
// checked against its request, over three seeds.
func TestEarlySwitchKeepsRepliesRight(t *testing.T) {
	var sent, early uint64
	for seed := uint64(1); seed <= 3; seed++ {
		c, s := rotationServer(6, 32, seed, false)
		r := runOpenLoop(c, s, 64, 4, 2048, 0.5e6, seed, 3*sim.Millisecond)
		if r.wrong != 0 || r.answered != r.sent {
			t.Errorf("seed %d: sent %d, answered %d, wrong %d", seed, r.sent, r.answered, r.wrong)
		}
		sent += r.sent
		early += s.Stats.EarlySwitches
		c.Close()
	}
	if sent < 4000 || early < 10 {
		t.Fatalf("%d requests over %d early switches: the run did not exercise the rule", sent, early)
	}
}

// TestFailureDetectionKeepsItsPace: slices are no longer a unit of time, so
// what counted them is checked against the clock. Two connected clients
// never send; fourteen offer a light open-loop load, so most slices end
// early and the idle pair's group is switched out far more often than the
// clock-driven rotation would. The pair must be probed at that rotation's
// rate all the same, and once their host dies be evicted about as soon.
func TestFailureDetectionKeepsItsPace(t *testing.T) {
	const crashAt = 5 * sim.Millisecond
	run := func(clockOnly bool) (probeRate float64, detect sim.Duration, st scalerpc.Stats) {
		c, s := rotationServer(7, 8, 1, clockOnly)
		defer c.Close()
		plane := c.InstallFaults(&faults.Scenario{
			Name:    "idle-host-dies",
			Crashes: []faults.Crash{{Node: 5, At: int64(crashAt)}},
			NIC:     faults.NICTuning{RetransmitTimeoutNs: 5000, RetryCount: 3},
		})
		for i := 0; i < 2; i++ {
			s.Connect(c.Hosts[5], sim.NewSignal(c.Env))
		}
		plane.OnCrash(func(int) { probeRate = float64(s.Stats.Probes) / float64(crashAt) })
		c.Env.Spawn("watch", func(p *sim.Proc) {
			for s.Stats.Evictions < 2 {
				p.Sleep(sim.Microsecond)
			}
			detect = p.Now() - crashAt
		})
		r := runOpenLoop(c, s, 14, 4, 32, 1.4e6, 1, crashAt+2*sim.Millisecond)
		if r.wrong != 0 || r.answered != r.sent {
			t.Fatalf("sent %d, answered %d, wrong %d", r.sent, r.answered, r.wrong)
		}
		return probeRate, detect, s.Stats
	}
	fixedRate, fixedDetect, fixedStats := run(true)
	earlyRate, earlyDetect, earlyStats := run(false)
	t.Logf("clock-driven: %.1f probes/ms, evicted after %d ns, %d switches; work-conserving: %.1f probes/ms, evicted after %d ns, %d switches (%d early)",
		fixedRate*1e6, fixedDetect, fixedStats.Switches, earlyRate*1e6, earlyDetect, earlyStats.Switches, earlyStats.EarlySwitches)
	if earlyStats.EarlySwitches*2 < earlyStats.Switches {
		t.Fatalf("%d early of %d switches: the run does not exercise the rule", earlyStats.EarlySwitches, earlyStats.Switches)
	}
	if fixedDetect == 0 || earlyDetect == 0 {
		t.Fatalf("dead clients not evicted: clock-driven %d ns, work-conserving %d ns", fixedDetect, earlyDetect)
	}
	if ratio := earlyRate / fixedRate; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("probe rate %.2f of the clock-driven rotation's, want within 10 %%", ratio)
	}
	// A dead client's QP errors on the first write after the crash — the
	// context_switch_event of its group's next switch-out, or a probe — and
	// the scan one rotation later evicts it. Both come sooner when slices
	// end early, never later.
	if ratio := float64(earlyDetect) / float64(fixedDetect); ratio > 1.1 {
		t.Errorf("detection latency %.2f of the clock-driven rotation's, want no more than 10 %% above", ratio)
	}
}

// TestAllocBudgetSchedulerSwitchPath pins the scheduler's steady state at
// zero allocations: sixteen connected, silent clients in two groups, so
// every tick scans both groups' endpoint entries and every switch drains the
// workers, notifies and probes eight clients, settles the slice, regroups
// (the dynamic scheduler rebuilds once per rotation) and late-sweeps the
// outgoing pool. One measured run spans a rotation and a half: two or three
// switches and a dozen idle ticks.
func TestAllocBudgetSchedulerSwitchPath(t *testing.T) {
	c, s := rotationServer(3, 8, 1, false)
	defer c.Close()
	for i := 0; i < 16; i++ {
		s.Connect(c.Hosts[1+i%2], sim.NewSignal(c.Env))
	}
	c.Env.RunUntil(2 * sim.Millisecond) // scratch, NIC pools and timer slots reach their sizes
	before := s.Stats
	got := testing.AllocsPerRun(10, func() { c.Env.RunUntil(c.Env.Now() + 300*sim.Microsecond) })
	if got != 0 {
		t.Errorf("%v allocs per 300 µs of idle two-group rotation, want 0", got)
	}
	if d := s.Stats.Switches - before.Switches; d < 20 || s.Stats.Regroups == before.Regroups || s.Stats.Probes == before.Probes {
		t.Fatalf("measured runs made %d switches, %d regroups, %d probes: the budget did not cover the switch path",
			d, s.Stats.Regroups-before.Regroups, s.Stats.Probes-before.Probes)
	}
}
