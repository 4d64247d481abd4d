package table2_test

import (
	"bytes"
	"fmt"
	"testing"

	"scalerpc/internal/baseline/herdrpc"
	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/baseline/selfrpc"
	"scalerpc/internal/baseline/table2"
	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

func echo(cost sim.Duration, runs *int) rpccore.Handler {
	return func(th *host.Thread, _ uint16, req, out []byte) int {
		*runs++
		th.Work(cost)
		return copy(out, req)
	}
}

// slowEcho is echo whose work is settled inside the handler: a sweeping
// worker defers its charges over the whole pass, so only the flush makes
// virtual time pass — and live pool memory change — while the handler
// still holds its request. It keeps a copy of what it echoed in *echoed.
func slowEcho(cost sim.Duration, echoed *[]byte) rpccore.Handler {
	return func(th *host.Thread, _ uint16, req, out []byte) int {
		th.Work(cost)
		th.FlushWork()
		*echoed = append([]byte{}, req...)
		return copy(out, req)
	}
}

// call sends one request and polls until its response (or the deadline).
func call(th *host.Thread, sig *sim.Signal, conn rpccore.Conn, payload []byte, reqID uint64, deadline sim.Time) (got []byte) {
	if !conn.TrySend(th, 1, payload, reqID) {
		return nil
	}
	for got == nil && th.P.Now() < deadline {
		conn.Poll(th, func(r rpccore.Response) {
			if r.ReqID == reqID {
				got = append([]byte{}, r.Payload...)
			}
		})
		if got == nil {
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
	}
	return got
}

// TestTable2Verbs pins each baseline to its row of the paper's Table 2:
// after 64 echoes, the client NIC must have posted exactly 64 requests and
// the server NIC exactly 64 responses, each on the transport class and
// with the verb the table names — and nothing else.
func TestTable2Verbs(t *testing.T) {
	type verb struct {
		qp nic.QPType
		op nic.Op
	}
	for _, tc := range []struct {
		name      string
		req, resp verb
	}{
		{"rawwrite", verb{nic.RC, nic.OpWrite}, verb{nic.RC, nic.OpWrite}},
		{"herd", verb{nic.UC, nic.OpWrite}, verb{nic.UD, nic.OpSend}},
		{"fasst", verb{nic.UD, nic.OpSend}, verb{nic.UD, nic.OpSend}},
		{"selfrpc", verb{nic.RC, nic.OpWriteImm}, verb{nic.RC, nic.OpWrite}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			runs := 0
			connect, err := table2.Start(tc.name, c.Hosts[0], func(s rpccore.Server) { s.Register(1, echo(100, &runs)) })
			if err != nil {
				t.Fatal(err)
			}
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			const calls = 64
			done, finished := 0, false
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				for i := 0; i < calls; i++ {
					want := []byte(fmt.Sprintf("echo-%02d", i))
					if got := call(th, sig, conn, want, uint64(i), 20*sim.Millisecond); bytes.Equal(got, want) {
						done++
					}
				}
				finished = true
			})
			for !finished && c.Env.Now() < 20*sim.Millisecond {
				c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
			}
			if done != calls || runs != calls {
				t.Fatalf("%d of %d echoes came back, handler ran %d times", done, calls, runs)
			}
			for side, h := range map[string]struct {
				stats nic.Stats
				want  verb
			}{
				"request":  {c.Hosts[1].NIC.Stats, tc.req},
				"response": {c.Hosts[0].NIC.Stats, tc.resp},
			} {
				var want [nic.DCTTarget + 1][nic.OpFetchAdd + 1]uint64
				want[h.want.qp][h.want.op] = calls
				if h.stats.OutVerbs != want {
					t.Errorf("%s half: posted verbs %v (rows RC UC UD DCT DCT_TGT, columns WRITE WRITE_IMM SEND READ CAS FADD), want %d x %v %v only",
						side, h.stats.OutVerbs, calls, h.want.qp, h.want.op)
				}
			}
		})
	}
}

// poolTransport builds one of the transports whose requests land in a
// server pool — the three baselines, each with a statically mapped one,
// and ScaleRPC — and knows how to land another request in the pool block
// a request already occupies.
type poolTransport struct {
	name  string
	build func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, overwrite)
	// warm marks a transport whose first request is no pool WRITE: a fresh
	// ScaleRPC client stages it for the server's warm-up READ, and only
	// from PROCESS on WRITEs into the pool. One call precedes the measured
	// one, which is sent at sendAt.
	warm bool
}

// overwrite lands request 6, carrying p, in the pool block holding request
// 5, the connection's only request in flight. It runs on the client host.
type overwrite func(th *host.Thread, conn rpccore.Conn, p []byte) error

// sendAt is when a warm transport's measured request is sent: its warm-up
// call has long been answered by then.
const sendAt = sim.Millisecond

// start returns when the measured request is sent.
func (tr poolTransport) start() sim.Time {
	if tr.warm {
		return sendAt
	}
	return 0
}

// settle readies conn for the measured request: on a warm transport it
// makes one call, so the next request is a pool WRITE, then waits for
// sendAt. It reports whether the warm-up call was answered.
func (tr poolTransport) settle(th *host.Thread, sig *sim.Signal, conn rpccore.Conn) bool {
	if !tr.warm {
		return true
	}
	ok := call(th, sig, conn, []byte("warm-up"), 1, sendAt) != nil
	th.P.Sleep(sendAt - th.P.Now())
	return ok
}

// writePool overwrites block (0, 0) of pool — client 0's slot 0 — in
// place, as an in-flight duplicate WRITE would.
func writePool(pool rpccore.ReqPool) overwrite {
	return func(_ *host.Thread, _ rpccore.Conn, p []byte) error {
		msg := make([]byte, rpcwire.HeaderSize+len(p))
		rpcwire.PutHeader(msg, rpcwire.Header{ReqID: 6, Handler: 1})
		copy(msg[rpcwire.HeaderSize:], p)
		return pool.WriteFrame(0, 0, msg, 0)
	}
}

func poolTransports() []poolTransport {
	return []poolTransport{
		{name: "rawwrite", build: func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, overwrite) {
			s := rawrpc.NewServer(h, rawrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, writePool(s.Req)
		}},
		{name: "herd", build: func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, overwrite) {
			s := herdrpc.NewServer(h, herdrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, writePool(s.Req)
		}},
		{name: "selfrpc", build: func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, overwrite) {
			s := selfrpc.NewServer(h, selfrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, writePool(s.Req)
		}},
		{name: "scalerpc", warm: true, build: func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, overwrite) {
			cfg := scalerpc.DefaultServerConfig()
			// A slow handler stays on the worker, as in the baselines, and
			// an idle client draws no liveness probe: every message on a
			// link is the test's own.
			cfg.LegacyThreshold = sim.Second
			cfg.ProbeSlices = 0
			s := scalerpc.NewServer(h, cfg)
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, cancelAndReuse
		}},
	}
}

// cancelAndReuse is ScaleRPC's own way to overwrite a request in the
// pool: a client in PROCESS that cancels request 5 sends request 6 from
// the freed slot, a direct WRITE into the block request 5 still occupies.
func cancelAndReuse(th *host.Thread, conn rpccore.Conn, p []byte) error {
	if !conn.(rpccore.Canceler).Cancel(th, 5) || !conn.TrySend(th, 1, p, 6) {
		return fmt.Errorf("could not cancel request 5 and send request 6 from its slot")
	}
	return nil
}

// TestServeSnapshotSurvivesOverwrite pins the snapshot-before-yield rule
// on every pool-request transport: the request a handler sees must stay
// stable even when a new frame is RDMA-written into the same pool block
// while the handler is executing (a duplicate delivery, a stale fetch or a
// reused slot racing a slow handler). A worker that hands the handler a
// slice of the live pool block echoes the overwriting frame's bytes — a
// cross-request payload swap the chaos harness first caught on RawWrite as
// a duplicate execution with delivered corruption.
func TestServeSnapshotSurvivesOverwrite(t *testing.T) {
	for _, tr := range poolTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			var echoed []byte
			// A deliberately slow echo: the 200 µs of handler work is the
			// yield window the overwrite below lands in.
			connect, overwrite := tr.build(c.Hosts[0], func(s rpccore.Server) { s.Register(1, slowEcho(200*sim.Microsecond, &echoed)) })
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)

			p1 := bytes.Repeat([]byte{0x11}, 24)
			p2 := bytes.Repeat([]byte{0x22}, 24)
			start := tr.start()
			var got []byte
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				if !tr.settle(th, sig, conn) {
					t.Error("warm-up call unanswered")
				}
				echoed = nil
				got = call(th, sig, conn, p1, 5, start+5*sim.Millisecond)
			})
			// While the handler is mid-Work (pickup completes well before
			// 80 µs; the handler runs until ~250 µs), land a different,
			// validly framed request in the same pool block — exactly what
			// an in-flight duplicate write does. The handler's view of
			// request 5 must not change.
			c.Hosts[1].Spawn("overwriter", func(th *host.Thread) {
				th.P.Sleep(start + 80*sim.Microsecond)
				if err := overwrite(th, conn, p2); err != nil {
					t.Errorf("overwrite: %v", err)
				}
			})
			c.Env.RunUntil(start + 5*sim.Millisecond)
			if echoed == nil {
				t.Fatal("request 5's handler never ran")
			}
			if !bytes.Equal(echoed, p1) {
				t.Fatalf("request 5's handler echoed %x, want %x — it read the overwriting frame", echoed, p1)
			}
			// A baseline client still awaits request 5 and must get the
			// echo; a ScaleRPC client gave its slot to request 6.
			if !tr.warm && !bytes.Equal(got, p1) {
				t.Fatalf("request 5 answered %x, want %x", got, p1)
			}
		})
	}
}

// TestCorruptRequestCountedNotServed corrupts the one request's payload
// past the ICRC on its way to the server (a fault rule on the client→server
// link, open only while the request is on the wire): the frame lands with
// Valid set but a CRC that no longer matches, so it must be counted in
// wire.crc_drops and treated as loss — the handler does not run and
// nothing is answered.
func TestCorruptRequestCountedNotServed(t *testing.T) {
	for _, tr := range poolTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			start := tr.start()
			plane := c.InstallFaults(&faults.Scenario{Name: "corrupt-request", Links: []faults.LinkFault{
				{Src: 1, Dst: 0, From: int64(start), Until: int64(start + 20*sim.Microsecond), PayloadCorruptRate: 1},
			}})
			runs := 0
			connect, _ := tr.build(c.Hosts[0], func(s rpccore.Server) { s.Register(1, echo(100, &runs)) })
			rel := rpccore.SharedRel(c.Telemetry)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			var got []byte
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				if !tr.settle(th, sig, conn) {
					t.Error("warm-up call unanswered")
				}
				runs = 0
				got = call(th, sig, conn, bytes.Repeat([]byte{0x33}, 24), 9, start+2*sim.Millisecond)
			})
			c.Env.RunUntil(start + 3*sim.Millisecond)
			if plane.Stats.PayloadCorrupts != 1 {
				t.Fatalf("%d messages corrupted, want the one request", plane.Stats.PayloadCorrupts)
			}
			if rel.CRCDrops != 1 || runs != 0 || got != nil {
				t.Fatalf("crc_drops=%d handler runs=%d response=%x, want 1 drop, no run, no response", rel.CRCDrops, runs, got)
			}
		})
	}
}

// TestCorruptResponseCountedNotDelivered corrupts the one response past the
// ICRC on its way back (a fault rule on the server→client link, open only
// while the response is on the wire) on every transport whose responses
// are WRITTEN into a client's response pool: the client must count it in
// wire.crc_drops and deliver nothing, and the request keeps its slot for
// the retry layer to recover.
func TestCorruptResponseCountedNotDelivered(t *testing.T) {
	for _, tr := range poolTransports() {
		if tr.name == "herd" {
			continue // UD SEND responses carry no frame to check
		}
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			start := tr.start()
			// The request's ACK leaves within a few µs; the response only
			// after the handler's 50 µs.
			plane := c.InstallFaults(&faults.Scenario{Name: "corrupt-response", Links: []faults.LinkFault{
				{Src: 0, Dst: 1, From: int64(start + 30*sim.Microsecond), Until: int64(start + 300*sim.Microsecond), PayloadCorruptRate: 1},
			}})
			runs := 0
			connect, _ := tr.build(c.Hosts[0], func(s rpccore.Server) { s.Register(1, echo(50*sim.Microsecond, &runs)) })
			rel := rpccore.SharedRel(c.Telemetry)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			var got []byte
			outstanding := -1
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				if !tr.settle(th, sig, conn) {
					t.Error("warm-up call unanswered")
				}
				runs = 0
				got = call(th, sig, conn, bytes.Repeat([]byte{0x44}, 24), 9, start+2*sim.Millisecond)
				outstanding = conn.Outstanding()
			})
			c.Env.RunUntil(start + 3*sim.Millisecond)
			if plane.Stats.PayloadCorrupts != 1 {
				t.Fatalf("%d messages corrupted, want the one response", plane.Stats.PayloadCorrupts)
			}
			if rel.CRCDrops != 1 || runs != 1 || got != nil || outstanding != 1 {
				t.Fatalf("crc_drops=%d handler runs=%d response=%x outstanding=%d, want 1 drop, 1 run, no response, the slot still busy",
					rel.CRCDrops, runs, got, outstanding)
			}
		})
	}
}
