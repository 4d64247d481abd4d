package table2_test

import (
	"bytes"
	"fmt"
	"testing"

	"scalerpc/internal/baseline"
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
// still holds its request.
func slowEcho(cost sim.Duration, runs *int) rpccore.Handler {
	return func(th *host.Thread, _ uint16, req, out []byte) int {
		*runs++
		th.Work(cost)
		th.FlushWork()
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

// poolTransport builds one of the three baselines whose requests land in a
// statically mapped server pool, and exposes that pool.
type poolTransport struct {
	name  string
	build func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, baseline.ReqPool)
}

func poolTransports() []poolTransport {
	return []poolTransport{
		{"rawwrite", func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, baseline.ReqPool) {
			s := rawrpc.NewServer(h, rawrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, s.Req
		}},
		{"herd", func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, baseline.ReqPool) {
			s := herdrpc.NewServer(h, herdrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, s.Req
		}},
		{"selfrpc", func(h *host.Host, reg func(rpccore.Server)) (table2.Connect, baseline.ReqPool) {
			s := selfrpc.NewServer(h, selfrpc.DefaultServerConfig())
			reg(s)
			s.Start()
			return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }, s.Req
		}},
	}
}

// TestServeSnapshotSurvivesOverwrite pins the snapshot-before-yield rule
// on every pool-request transport: the request a handler sees must stay
// stable even when a new frame is RDMA-written into the same pool block
// while the handler is executing (a duplicate delivery or a stale fetch
// racing a slow handler). A worker that hands the handler a slice of the
// live pool block echoes the overwriting frame's bytes — a cross-request
// payload swap the chaos harness first caught on RawWrite as a duplicate
// execution with delivered corruption.
func TestServeSnapshotSurvivesOverwrite(t *testing.T) {
	for _, tr := range poolTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			runs := 0
			// A deliberately slow echo: the 200 µs of handler work is the
			// yield window the overwrite below lands in.
			connect, pool := tr.build(c.Hosts[0], func(s rpccore.Server) { s.Register(1, slowEcho(200*sim.Microsecond, &runs)) })
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)

			p1 := bytes.Repeat([]byte{0x11}, 24)
			p2 := bytes.Repeat([]byte{0x22}, 24)
			var got []byte
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				got = call(th, sig, conn, p1, 5, 5*sim.Millisecond)
			})
			// While the handler is mid-Work (pickup completes well before
			// 80 µs; the handler runs until ~250 µs), land a different,
			// validly framed request in the same pool block — exactly what
			// an in-flight duplicate write does. The handler's view of
			// request 5 must not change.
			c.Hosts[0].Spawn("overwriter", func(th *host.Thread) {
				th.P.Sleep(80 * sim.Microsecond)
				msg := make([]byte, rpcwire.HeaderSize+len(p2))
				rpcwire.PutHeader(msg, rpcwire.Header{ReqID: 6, Handler: 1})
				copy(msg[rpcwire.HeaderSize:], p2)
				if err := rpcwire.Encode(pool.Block(0, 0), msg, 0); err != nil {
					t.Errorf("encode overwrite: %v", err)
				}
			})
			c.Env.RunUntil(5 * sim.Millisecond)
			if runs == 0 || got == nil {
				t.Fatalf("no response to request 5 (handler ran %d times)", runs)
			}
			if !bytes.Equal(got, p1) {
				t.Fatalf("request 5 echoed %x, want %x — handler read the overwriting frame", got, p1)
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
			plane := c.InstallFaults(&faults.Scenario{Name: "corrupt-request", Links: []faults.LinkFault{
				{Src: 1, Dst: 0, Until: int64(20 * sim.Microsecond), PayloadCorruptRate: 1},
			}})
			runs := 0
			connect, _ := tr.build(c.Hosts[0], func(s rpccore.Server) { s.Register(1, echo(100, &runs)) })
			rel := rpccore.SharedRel(c.Telemetry)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			var got []byte
			c.Hosts[1].Spawn("client", func(th *host.Thread) {
				got = call(th, sig, conn, bytes.Repeat([]byte{0x33}, 24), 9, 2*sim.Millisecond)
			})
			c.Env.RunUntil(3 * sim.Millisecond)
			if plane.Stats.PayloadCorrupts != 1 {
				t.Fatalf("%d messages corrupted, want the one request", plane.Stats.PayloadCorrupts)
			}
			if rel.CRCDrops != 1 || runs != 0 || got != nil {
				t.Fatalf("crc_drops=%d handler runs=%d response=%x, want 1 drop, no run, no response", rel.CRCDrops, runs, got)
			}
		})
	}
}
