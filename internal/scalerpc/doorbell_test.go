package scalerpc

import (
	"encoding/binary"
	"strings"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// TestClosedLoopChainsEachClientsResponses: 80 clients in two groups each
// issue a batch of 8 echoes, and the next once all 8 are answered. The
// server answers each client's batch as one chain of WRITEs behind one
// doorbell, and fetches its warm-up requests as one chain of READs, so it
// rings well under one doorbell per request; every reply still matches its
// request byte for byte.
func TestClosedLoopChainsEachClientsResponses(t *testing.T) {
	const (
		clients = 80
		batch   = 8
		size    = 32
		horizon = 2 * sim.Millisecond
	)
	c, s := rotationServer(6, 40, 1, false)
	defer c.Close()
	fill := func(buf []byte, client int, id uint64) {
		rng := stats.NewRNG(uint64(client)<<32 ^ id)
		for off := 0; off+8 <= len(buf); off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], rng.Uint64())
		}
	}
	var sent, answered, wrong uint64
	for i := 0; i < clients; i++ {
		i := i
		h := c.Hosts[1+i%4]
		sig := sim.NewSignal(c.Env)
		conn := s.Connect(h, sig)
		h.Spawn("closed-loop", func(th *host.Thread) {
			th.P.Sleep(150*sim.Microsecond + sim.Duration(i)*97)
			outstanding := map[uint64]bool{}
			var id uint64
			req, want := make([]byte, size), make([]byte, size)
			pending := 0 // requests of the current batch not yet sent
			for th.P.Now() < horizon || len(outstanding) > 0 {
				if len(outstanding) == 0 && pending == 0 && th.P.Now() < horizon {
					pending = batch
				}
				for ; pending > 0; pending-- {
					fill(req, i, id+1)
					if !conn.TrySend(th, 1, req, id+1) {
						break
					}
					id++
					outstanding[id] = true
					sent++
				}
				conn.Poll(th, func(r rpccore.Response) {
					if !outstanding[r.ReqID] {
						wrong++
						return
					}
					delete(outstanding, r.ReqID)
					answered++
					fill(want, i, r.ReqID)
					if r.Err || string(r.Payload) != string(want) {
						wrong++
					}
				})
				th.WaitSignal(sig, 5*sim.Microsecond)
			}
		})
	}
	c.Env.RunUntil(horizon + 2*sim.Millisecond)
	if wrong != 0 || answered != sent || sent < 10000 {
		t.Fatalf("sent %d, answered %d, wrong %d", sent, answered, wrong)
	}
	mmio := s.Host.Bus.Snapshot().MMIOWr
	perReq := float64(mmio) / float64(s.Stats.Served)
	t.Logf("%d doorbells for %d served requests over %d switches: %.3f per request", mmio, s.Stats.Served, s.Stats.Switches, perReq)
	if perReq > 0.3 {
		t.Fatalf("%.3f server doorbells per served request, want at most 0.3", perReq)
	}
}

// TestServerRejectsWindowPastStagingRing: a zone's responses stay staged in
// the worker's response ring until its chain is posted, so a request window
// longer than the ring would overwrite responses not yet on the wire.
func TestServerRejectsWindowPastStagingRing(t *testing.T) {
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.BlocksPerClient = 64
	NewServer(c.Hosts[0], cfg) // the ring's depth is allowed
	cfg.BlocksPerClient = 65
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "BlocksPerClient 65") {
			t.Fatalf("NewServer with 65 blocks per client: recovered %v, want a BlocksPerClient panic", r)
		}
	}()
	NewServer(c.Hosts[0], cfg)
}
