package rawrpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// TestStaleResponseCounted: a previous occupant's response re-delivered
// into a busy slot's response block (a late duplicate) is counted in
// rpc.stale_responses and discarded; the slot stays busy, and its own
// response is delivered when it lands.
func TestStaleResponseCounted(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 4
	s := NewServer(c.Hosts[0], cfg)
	s.Register(1, func(_ *host.Thread, _ uint16, req, out []byte) int { return copy(out, req) })
	s.Register(2, func(th *host.Thread, _ uint16, req, out []byte) int {
		th.P.Sleep(100 * sim.Microsecond) // keeps the second call in flight
		return copy(out, req)
	})
	s.Start()
	sig := sim.NewSignal(c.Env)
	conn := s.Connect(c.Hosts[1], sig)

	var got []uint64
	collect := func(r rpccore.Response) { got = append(got, r.ReqID) }
	stale, staleGot, staleOutstanding := ^uint64(0), -1, -1
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		conn.TrySend(th, 1, []byte("old"), 1)
		for !conn.resp.Valid(0, 0) {
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
		old := make([]byte, rpcwire.BlockSize)
		conn.resp.Region.ReadAt(old, 0)
		conn.Poll(th, collect)
		if !conn.TrySend(th, 2, []byte("new"), 2) { // slot 0 again
			t.Error("second send refused")
			return
		}
		conn.resp.Region.WriteAt(old, 0)
		staleGot = conn.Poll(th, collect)
		stale, staleOutstanding = s.Rel.StaleResponses, conn.Outstanding()
		for conn.Outstanding() > 0 {
			conn.Poll(th, collect)
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
	})
	c.Env.RunUntil(2 * sim.Millisecond)
	if stale != 1 || staleGot != 0 || staleOutstanding != 1 {
		t.Fatalf("re-delivery: stale_responses=%d delivered=%d outstanding=%d, want 1, 0 and the slot still busy",
			stale, staleGot, staleOutstanding)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want [1 2]", got)
	}
}
