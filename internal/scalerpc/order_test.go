package scalerpc

import (
	"encoding/binary"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// getPutResult is what one bulk get/put closed loop measured.
type getPutResult struct {
	sent, answered, wrong uint64
	conns                 []*Conn
}

// runGetPut is the bulk get/put closed loop: 120 clients on eleven hosts
// keep four 2 KB puts (8 B replies) and 16 B gets (2 KB replies)
// outstanding each until horizon, then drain for up to 2 ms, and every
// reply is checked against its request.
func runGetPut(timeSlice sim.Duration, horizon sim.Time) (*cluster.Cluster, *Server, getPutResult) {
	const (
		clients = 120
		window  = 4
		bulk    = 2048
	)
	deadline := horizon + 2*sim.Millisecond
	c := cluster.New(cluster.Default(12))
	cfg := DefaultServerConfig()
	cfg.TimeSlice = timeSlice
	s := NewServer(c.Hosts[0], cfg)
	// A put (2 KB request) answers with its first word; a get (16 B)
	// answers with 2 KB that carry the request at the head and its first
	// word at the tail.
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		if len(req) == bulk {
			return copy(out, req[:8])
		}
		copy(out, req)
		copy(out[bulk-8:], req[:8])
		return bulk
	})
	s.Start()

	var r getPutResult
	for i := 0; i < clients; i++ {
		i := i
		h := c.Hosts[1+i%11]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		r.conns = append(r.conns, conn)
		h.Spawn("getput", func(th *host.Thread) {
			rng := stats.NewRNG(uint64(i) + 1)
			th.P.Sleep(sim.Duration(i%64) * 311)
			reqs := map[uint64][]byte{}
			var id uint64
			check := func(resp rpccore.Response) {
				req, ok := reqs[resp.ReqID]
				delete(reqs, resp.ReqID)
				r.answered++
				switch {
				case !ok || resp.Err:
					r.wrong++
				case len(req) == bulk:
					if string(resp.Payload) != string(req[:8]) {
						r.wrong++
					}
				case len(resp.Payload) != bulk || string(resp.Payload[:16]) != string(req) ||
					string(resp.Payload[bulk-8:]) != string(req[:8]):
					r.wrong++
				}
			}
			for th.P.Now() < deadline && (th.P.Now() < horizon || len(reqs) > 0) {
				for th.P.Now() < horizon && len(reqs) < window {
					w := rng.Uint64()
					req := make([]byte, 16)
					if w&1 == 1 {
						req = make([]byte, bulk)
					}
					for off := 0; off+8 <= len(req); off += 8 {
						binary.LittleEndian.PutUint64(req[off:], w+uint64(off))
					}
					if !conn.TrySend(th, 1, req, id+1) {
						break
					}
					id++
					reqs[id] = req
					r.sent++
				}
				if conn.Poll(th, check) == 0 {
					th.WaitSignal(sig, 5*sim.Microsecond)
				}
			}
		})
	}
	c.Env.RunUntil(deadline)
	return c, s, r
}

// TestShortSliceGetPutStaysRight is the bulk get/put closed loop at a
// 30 µs slice, a point of Fig 11(a)'s sweep. A work request that left the
// NIC ahead of its predecessor on the same QP drew a NAK on this lossless
// fabric, and the go-back-N resend re-gathered a response from a scratch
// block the worker had already reused, so a client was answered with
// another's reply. No NIC may retransmit, and no reply may be wrong.
func TestShortSliceGetPutStaysRight(t *testing.T) {
	c, s, r := runGetPut(30*sim.Microsecond, 6*sim.Millisecond)
	defer c.Close()
	var retransmits uint64
	for _, h := range c.Hosts {
		retransmits += h.NIC.Stats.Retransmits
	}
	if r.wrong != 0 || retransmits != 0 || r.answered != r.sent {
		t.Errorf("sent %d, answered %d, wrong %d, NIC retransmits %d; want every reply right and none resent",
			r.sent, r.answered, r.wrong, retransmits)
	}
	if r.sent < 8000 {
		t.Errorf("%d requests: the loop did not run", r.sent)
	}
	t.Logf("sent %d over %d switches", r.sent, s.Stats.Switches)
}

// TestSwitchRaceRunsEachRequestOnce is the bulk get/put closed loop at the
// default slice, across a dozen context switches. A drain or late-sweep
// response that lands after the client took the switch flag must complete
// the slot it was sent for: unanswered requests keep their slots when the
// switch re-offers them. When a switch moved them to other slots, such a
// response was dropped as stale, and the re-offered copy ran a second time
// from the server's reply cache. Every reply must be right, and no request
// may reach the reply cache twice.
func TestSwitchRaceRunsEachRequestOnce(t *testing.T) {
	c, s, r := runGetPut(DefaultServerConfig().TimeSlice, 3*sim.Millisecond)
	defer c.Close()
	var late, retries uint64
	for _, conn := range r.conns {
		late += conn.LateCompletions
		retries += conn.Retries
	}
	dedup := rpccore.SharedRel(c.Telemetry).DedupHits
	t.Logf("sent %d over %d switches: %d re-offered, %d completed late, %d dedup hits",
		r.sent, s.Stats.Switches, retries, late, dedup)
	if r.wrong != 0 || r.answered != r.sent {
		t.Errorf("sent %d, answered %d, wrong %d; want every reply right", r.sent, r.answered, r.wrong)
	}
	if dedup != 0 {
		t.Errorf("%d requests reached the reply cache twice, want 0", dedup)
	}
	if s.Stats.Switches < 10 || late == 0 || late > retries {
		t.Errorf("%d switches, %d of %d re-offered requests completed late: the run did not race the switch",
			s.Stats.Switches, late, retries)
	}
}
