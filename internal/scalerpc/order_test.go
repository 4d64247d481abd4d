package scalerpc_test

import (
	"encoding/binary"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// TestShortSliceGetPutStaysRight is the bulk get/put closed loop at a
// 30 µs slice, a point of Fig 11(a)'s sweep: 120 clients keep four 2 KB
// puts (8 B replies) and 16 B gets (2 KB replies) outstanding each, and
// every reply is checked against its request. A work request that left the
// NIC ahead of its predecessor on the same QP drew a NAK on this lossless
// fabric, and the go-back-N resend re-gathered a response from a scratch
// block the worker had already reused, so a client was answered with
// another's reply. No NIC may retransmit, and no reply may be wrong.
func TestShortSliceGetPutStaysRight(t *testing.T) {
	const (
		clients  = 120
		window   = 4
		bulk     = 2048
		horizon  = 6 * sim.Millisecond
		deadline = horizon + 2*sim.Millisecond
	)
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	cfg := scalerpc.DefaultServerConfig()
	cfg.TimeSlice = 30 * sim.Microsecond
	s := scalerpc.NewServer(c.Hosts[0], cfg)
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

	var sent, answered, wrong uint64
	for i := 0; i < clients; i++ {
		i := i
		h := c.Hosts[1+i%11]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		h.Spawn("getput", func(th *host.Thread) {
			rng := stats.NewRNG(uint64(i) + 1)
			th.P.Sleep(sim.Duration(i%64) * 311)
			reqs := map[uint64][]byte{}
			var id uint64
			check := func(r rpccore.Response) {
				req, ok := reqs[r.ReqID]
				delete(reqs, r.ReqID)
				answered++
				switch {
				case !ok || r.Err:
					wrong++
				case len(req) == bulk:
					if string(r.Payload) != string(req[:8]) {
						wrong++
					}
				case len(r.Payload) != bulk || string(r.Payload[:16]) != string(req) ||
					string(r.Payload[bulk-8:]) != string(req[:8]):
					wrong++
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
					sent++
				}
				if conn.Poll(th, check) == 0 {
					th.WaitSignal(sig, 5*sim.Microsecond)
				}
			}
		})
	}
	c.Env.RunUntil(deadline)

	var retransmits uint64
	for _, h := range c.Hosts {
		retransmits += h.NIC.Stats.Retransmits
	}
	if wrong != 0 || retransmits != 0 || answered != sent {
		t.Errorf("sent %d, answered %d, wrong %d, NIC retransmits %d; want every reply right and none resent",
			sent, answered, wrong, retransmits)
	}
	if sent < 8000 {
		t.Errorf("%d requests: the loop did not run", sent)
	}
	t.Logf("sent %d over %d switches", sent, s.Stats.Switches)
}
