package rawrpc

import (
	"bytes"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// TestResponseBetweenIdlePolls: a client polls its response blocks every
// microsecond while a slow handler runs. The polls before the response
// WRITE lands see the region at the generation they saw at the send, so
// the pool answers their probes from its memo of a clear Valid byte; the
// first poll after the WRITE lands delivers the response.
func TestResponseBetweenIdlePolls(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxClients = 1
	s := NewServer(c.Hosts[0], cfg)
	s.Register(1, func(th *host.Thread, _ uint16, req, out []byte) int {
		th.Work(20 * sim.Microsecond)
		return copy(out, req)
	})
	s.Start()
	conn := s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	reg := conn.resp.Region
	var got []byte
	idle, deliveredAt := 0, -1
	c.Hosts[1].Spawn("client", func(th *host.Thread) {
		if !conn.TrySend(th, 1, []byte("between-polls"), 7) {
			t.Error("TrySend failed on a free slot")
			return
		}
		sent := reg.Gen()
		for poll := 0; got == nil && th.P.Now() < sim.Millisecond; poll++ {
			th.P.Sleep(sim.Microsecond)
			landed := reg.Gen() != sent
			n := conn.Poll(th, func(r rpccore.Response) { got = append([]byte(nil), r.Payload...) })
			switch {
			case n == 0 && landed:
				t.Fatalf("poll %d: the response WRITE landed, the poll delivered nothing", poll)
			case n == 0:
				idle++
			case !landed:
				t.Fatalf("poll %d delivered a response before any WRITE landed", poll)
			default:
				deliveredAt = poll
			}
		}
	})
	c.Env.RunUntil(2 * sim.Millisecond)
	if !bytes.Equal(got, []byte("between-polls")) {
		t.Fatalf("response = %q, want %q", got, "between-polls")
	}
	if idle < 10 || deliveredAt != idle {
		t.Fatalf("%d idle polls, delivered on poll %d; want ≥ 10 idle polls, then delivery on the next", idle, deliveredAt)
	}
}
