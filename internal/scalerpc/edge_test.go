package scalerpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// The sweeps stop each zone's scan at its client's live edge (scanZone).
// These tests pin the edge's cases: a window that grows past the last
// advertisement by direct sends, a CRC-dropped frame at the edge, the probe
// count of a saturated loop, and a client that lost its switch notification
// and learns of the switch from a late-swept response.

// edgeRig is a server on host 0 whose slices end on the clock (a SyncGroup
// with an idle peer on host 3), with two workers, groups of four, no
// liveness probes, and an echo handler that counts its runs.
type edgeRig struct {
	c    *cluster.Cluster
	s    *Server
	runs map[string]int // executions per request body
}

func newEdgeRig(slice sim.Duration) *edgeRig {
	c := cluster.New(cluster.Default(4))
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	cfg.GroupSize = 4
	cfg.TimeSlice = slice
	cfg.MaxClients = 32
	cfg.ProbeSlices = 0
	r := &edgeRig{c: c, s: NewServer(c.Hosts[0], cfg), runs: map[string]int{}}
	r.s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(200)
		r.runs[string(req)]++
		return copy(out, req)
	})
	r.s.Start()
	peer := NewServer(c.Hosts[3], cfg)
	peer.Start()
	NewSyncGroup([]*Server{r.s, peer})
	return r
}

// connect admits n backdoor clients on host hi.
func (r *edgeRig) connect(hi, n int) []*Conn {
	var conns []*Conn
	for i := 0; i < n; i++ {
		conns = append(conns, r.s.Connect(r.c.Hosts[hi], sim.NewSignal(r.c.Env)))
	}
	return conns
}

// edgeReq is the payload of request id of client cid.
func edgeReq(cid uint16, id uint64) []byte { return []byte(fmt.Sprintf("c%d-r%d", cid, id)) }

// collectReplies polls conn until it has no request outstanding or the
// deadline passes, checking every reply against its request.
func collectReplies(th *host.Thread, conn *Conn, deadline sim.Time, wrong *int) {
	for conn.Outstanding() > 0 && th.P.Now() < deadline {
		conn.Poll(th, func(r rpccore.Response) {
			if r.Err || !bytes.Equal(r.Payload, edgeReq(conn.ID(), r.ReqID)) {
				*wrong++
			}
		})
		if conn.Outstanding() > 0 {
			th.WaitSignal(conn.sig, 5*sim.Microsecond)
		}
	}
}

// TestDirectSendsPastTheAdvertisedCount: a client whose warm-up round
// advertised two requests goes to PROCESS on their answers and, in the same
// slice, fills its whole window by direct sends in bursts of four, twice
// over. The server never reads a larger advertised count (a PROCESS client
// publishes none), so every block past the second lies beyond the
// advertisement, and each burst lands above blocks already served and
// cleared: the scan's seen term must carry it past them. Every request must
// be served within the slice, and no switch may re-offer one.
func TestDirectSendsPastTheAdvertisedCount(t *testing.T) {
	r := newEdgeRig(400 * sim.Microsecond)
	defer r.c.Close()
	conns := r.connect(1, 8) // two groups of four; the first is the victim's
	conn := conns[0]
	window := conn.SlotCount()
	var id uint64
	wrong, peak := 0, 0
	var adv int
	var slice, retries uint64
	done := false
	r.c.Hosts[1].Spawn("client", func(th *host.Thread) {
		send := func(n int) {
			for i := 0; i < n; i++ {
				id++
				if !conn.TrySend(th, 1, edgeReq(conn.ID(), id), id) {
					t.Errorf("send %d refused with %d outstanding", id, conn.Outstanding())
					return
				}
			}
			peak = max(peak, conn.Outstanding())
		}
		// Warm up until the client reaches PROCESS with most of its slice
		// still ahead of it.
		for {
			send(2)
			collectReplies(th, conn, th.P.Now()+5*sim.Millisecond, &wrong)
			for r.s.nextSwitch <= th.P.Now() {
				th.P.Sleep(sim.Microsecond) // the switch that promoted it is still settling
			}
			if conn.State() == StateProcess && r.s.nextSwitch-th.P.Now() > 200*sim.Microsecond {
				break
			}
			for conn.State() == StateProcess {
				th.WaitSignal(conn.sig, 10*sim.Microsecond)
				conn.Poll(th, func(rpccore.Response) {})
			}
		}
		cs := r.s.clients[conn.ID()]
		adv, slice, retries = cs.advertised, r.s.Stats.Switches, conn.Retries
		// Each burst lands above the last, once the server has served and
		// cleared the blocks below it: the client does not poll in between,
		// so their slots stay busy and the next burst takes the blocks past
		// them.
		for round := 0; round < 2; round++ {
			for k := 0; k < window/4; k++ {
				send(4)
				th.P.Sleep(10 * sim.Microsecond)
			}
			collectReplies(th, conn, r.s.nextSwitch, &wrong)
		}
		if r.s.Stats.Switches != slice {
			t.Errorf("the slice ended with %d requests outstanding", conn.Outstanding())
		}
		retries = conn.Retries - retries
		done = true
	})
	r.c.Env.RunUntil(20 * sim.Millisecond)
	if !done {
		t.Fatal("the client never finished")
	}
	if adv != 2 || peak != window {
		t.Errorf("advertised %d, peak in flight %d; want 2 and the %d-slot window", adv, peak, window)
	}
	if wrong != 0 || conn.Outstanding() != 0 || retries != 0 {
		t.Errorf("%d wrong replies, %d unanswered, %d re-offered in the slice; want 0, 0, 0", wrong, conn.Outstanding(), retries)
	}
	for b, n := range r.runs {
		if n != 1 {
			t.Errorf("%s ran %d times", b, n)
		}
	}
}

// TestCorruptFrameAtTheEdgeIsPassed: a client's zone holds a frame whose CRC
// fails exactly at the edge (blocks below it were served and cleared) and a
// valid request right after it. The dropped frame had its Valid byte set, so
// it counts as seen and the same scan goes on to serve the request behind
// it; the scan stops at the first empty block past them.
func TestCorruptFrameAtTheEdgeIsPassed(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.MaxClients = 4
	s := NewServer(c.Hosts[0], cfg) // not started: the test is the only sweeper
	runs := 0
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		runs++
		return copy(out, req)
	})
	conn := s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	cs := s.clients[conn.ID()]
	const z, edge = 0, 3
	s.bind(cs, z, processing)
	cs.advertised, cs.seen = 2, edge // blocks 0-2 were served
	pool := s.processingPool()
	put := func(b int, reqID uint64) {
		msg := make([]byte, rpcwire.HeaderSize+8)
		rpcwire.PutHeader(msg, rpcwire.Header{ReqID: reqID, Handler: 1, ClientID: cs.ID})
		binary.LittleEndian.PutUint64(msg[rpcwire.HeaderSize:], reqID)
		if err := pool.WriteFrame(z, b, msg, 0); err != nil {
			t.Fatal(err)
		}
	}
	put(edge, 1)
	put(edge+1, 2)
	off, _ := rpcwire.EncodedSpan(rpcwire.BlockSize, rpcwire.HeaderSize+8)
	at := int(pool.BlockAddr(z, edge)-pool.Region.Base) + off + rpcwire.HeaderSize
	pool.Region.WriteAt([]byte{pool.Region.ByteAt(at) ^ 0xFF}, int64(at)) // past the NIC's ICRC
	rel := rpccore.SharedRel(c.Telemetry)
	served := -1
	c.Hosts[0].Spawn("sweep", func(th *host.Thread) {
		out := rpccore.NewOutbox(s.Host)
		var buf []byte
		th.BeginWork()
		served = s.scanZone(th, pool, z, cs, &out, &buf, byWorker)
		th.EndWork()
	})
	c.Env.RunUntil(100 * sim.Microsecond)
	if rel.CRCDrops != 1 || served != 1 || runs != 1 {
		t.Fatalf("crc_drops %d, served %d, handler runs %d; want the frame at the edge dropped and the one behind it served", rel.CRCDrops, served, runs)
	}
	if s.Stats.SweepProbes != edge+3 || cs.seen != edge+2 {
		t.Errorf("%d probes, seen %d; want %d probes (up to the first empty block past the edge), seen %d",
			s.Stats.SweepProbes, cs.seen, edge+3, edge+2)
	}
	// The request behind the dropped frame was answered into its own
	// response block; nothing answers the dropped one.
	if conn.resp.Valid(0, edge) {
		t.Error("the dropped frame's slot got a response")
	}
	var buf []byte
	msg, _, err := conn.resp.ReadFrame(0, edge+1, &buf)
	if hdr, _, herr := rpcwire.ParseHeader(msg); err != nil || herr != nil || hdr.ReqID != 2 {
		t.Errorf("response block %d: %v, %v, header %+v; want request 2's answer", edge+1, err, herr, hdr)
	}
}

// TestSaturatedLoopProbesPerServedRequest: 80 clients in two groups, each a
// closed loop of batch 8. When every worker and late sweep probed all 16
// blocks of every zone it visited, this run charged 12.15 probes per served
// request (322 852 for 26 580). Stopping each scan at its client's live edge
// — eight blocks in use, and the empty one past them — charges 7.65 (204 690
// for 26 772). A scan that ignores the edge fails the bound of 9.
func TestSaturatedLoopProbesPerServedRequest(t *testing.T) {
	c := cluster.New(cluster.Default(6))
	defer c.Close()
	cfg := DefaultServerConfig()
	s := NewServer(c.Hosts[0], cfg)
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return copy(out, req)
	})
	s.Start()
	const horizon = 2 * sim.Millisecond
	for i := 0; i < 80; i++ {
		h := c.Hosts[1+i%4]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		dcfg := rpccore.DriverConfig{Batch: 8, Handler: 1, PayloadSize: 32, Seed: uint64(i),
			StartDelay: 150*sim.Microsecond + sim.Duration(i)*97}
		h.Spawn("drv", func(th *host.Thread) {
			rpccore.RunDriver(th, []rpccore.Conn{conn}, dcfg, sig, func() bool { return th.P.Now() >= horizon })
		})
	}
	c.Env.RunUntil(horizon)
	per := float64(s.Stats.SweepProbes) / float64(s.Stats.Served)
	t.Logf("%d probes for %d served requests over %d switches: %.2f per request", s.Stats.SweepProbes, s.Stats.Served, s.Stats.Switches, per)
	if s.Stats.Served < 10000 || per > 9 {
		t.Errorf("%.2f probes per served request over %d requests, want at most 9", per, s.Stats.Served)
	}
}

// TestLostSwitchNotificationActsOnLateFlag: a PROCESS client's explicit
// context_switch_event is corrupted past the ICRC on its way (a fault rule on
// the server→client link, open from the drain until the notification has
// left), so its control block reads as a CRC drop and the client stays in
// PROCESS. Its next request lands in the outgoing pool after the workers
// drained, and the late sweep answers it with the switch flag and no zone.
// The client must act on that flag while still in PROCESS — a client out of
// PROCESS ignores it, having acted on the notification already — or it goes
// on writing into a zone that is no longer its own. Every reply must be
// right, each request must run once, and nothing may reach the reply cache
// twice.
func TestLostSwitchNotificationActsOnLateFlag(t *testing.T) {
	r := newEdgeRig(200 * sim.Microsecond)
	defer r.c.Close()
	sc := &faults.Scenario{Name: "lost-switch-notification", Links: []faults.LinkFault{
		{Src: 0, Dst: 1, From: 1 << 62, PayloadCorruptRate: 1},
	}}
	r.c.InstallFaults(sc)
	rel := rpccore.SharedRel(r.c.Telemetry)
	conn := r.connect(1, 1)[0] // alone on host 1: the rule sees only its traffic
	r.connect(2, 11)           // three groups of four
	var id uint64
	wrong, sent := 0, 0
	var lateInProcess, idleAfter bool
	var switches, lateServed uint64
	done := false
	r.c.Hosts[1].Spawn("client", func(th *host.Thread) {
		send := func() {
			id++
			if !conn.TrySend(th, 1, edgeReq(conn.ID(), id), id) {
				t.Errorf("send %d refused", id)
			}
			sent++
		}
		for conn.State() != StateProcess {
			send()
			collectReplies(th, conn, th.P.Now()+5*sim.Millisecond, &wrong)
		}
		s, cs := r.s, r.s.clients[conn.ID()]
		for !s.draining {
			th.P.Sleep(100)
		}
		sc.Links[0].From = int64(th.P.Now())
		for s.drainCount < len(s.workers) {
			th.P.Sleep(100)
		}
		send() // into the outgoing pool, after the drain: for the late sweep
		for cs.notifiedEpoch != s.epoch {
			th.P.Sleep(100)
		}
		th.P.Sleep(1500) // the notification leaves the NIC
		sc.Links[0].Until = int64(th.P.Now())
		switches, lateServed = conn.Switches, s.Stats.LateServed
		for conn.Outstanding() > 0 {
			conn.Poll(th, func(resp rpccore.Response) {
				lateInProcess = conn.State() == StateProcess
				if resp.Err || !bytes.Equal(resp.Payload, edgeReq(conn.ID(), resp.ReqID)) {
					wrong++
				}
			})
			th.WaitSignal(conn.sig, 5*sim.Microsecond)
		}
		idleAfter = conn.State() == StateIdle
		switches, lateServed = conn.Switches-switches, s.Stats.LateServed-lateServed
		// The client carries on through further rotations.
		for end := th.P.Now() + 2*sim.Millisecond; th.P.Now() < end; {
			send()
			send()
			collectReplies(th, conn, th.P.Now()+5*sim.Millisecond, &wrong)
		}
		done = true
	})
	r.c.Env.RunUntil(20 * sim.Millisecond)
	if !done {
		t.Fatalf("the client never finished: %d of %d requests unanswered", conn.Outstanding(), sent)
	}
	if rel.CRCDrops != 1 {
		t.Fatalf("%d CRC drops, want the one notification", rel.CRCDrops)
	}
	if lateServed != 1 || switches != 1 || !lateInProcess || !idleAfter {
		t.Errorf("late-served %d, switches taken %d, answered in PROCESS %v, IDLE after %v; want the late-swept answer to move the client out of PROCESS",
			lateServed, switches, lateInProcess, idleAfter)
	}
	if wrong != 0 || conn.Outstanding() != 0 || rel.DedupHits != 0 {
		t.Errorf("%d wrong replies, %d of %d unanswered, %d dedup hits; want 0, 0, 0", wrong, conn.Outstanding(), sent, rel.DedupHits)
	}
	for b, n := range r.runs {
		if n != 1 {
			t.Errorf("%s ran %d times", b, n)
		}
	}
}
