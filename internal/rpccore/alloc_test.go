package rpccore_test

import (
	"runtime"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// echoConn answers every request at the next Poll and allocates nothing
// itself, so whatever a driver pass allocates is the driver's.
type echoConn struct{ ids []uint64 }

func (e *echoConn) TrySend(t *host.Thread, h uint8, payload []byte, reqID uint64) bool {
	if len(e.ids) == cap(e.ids) {
		return false
	}
	e.ids = append(e.ids, reqID)
	return true
}

func (e *echoConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	n := len(e.ids)
	for _, id := range e.ids {
		fn(rpccore.Response{ReqID: id})
	}
	e.ids = e.ids[:0]
	return n
}

func (e *echoConn) Outstanding() int { return len(e.ids) }
func (e *echoConn) SlotCount() int   { return cap(e.ids) }

// TestAllocBudgetRunDriver: the closed-loop driver's poll-collect-post pass
// allocates nothing per connection per pass (the response callback is bound
// once per coroutine, not built per Poll).
func TestAllocBudgetRunDriver(t *testing.T) {
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conns := []rpccore.Conn{&echoConn{ids: make([]uint64, 0, 8)}, &echoConn{ids: make([]uint64, 0, 8)}}
	var before, after runtime.MemStats
	var st rpccore.DriverStats
	passes := 0
	c.Hosts[0].Spawn("drv", func(th *host.Thread) {
		st = rpccore.RunDriver(th, conns, rpccore.DriverConfig{Batch: 4, PayloadSize: 16}, sig, func() bool {
			passes++
			switch passes {
			case 100:
				runtime.ReadMemStats(&before)
			case 1100:
				runtime.ReadMemStats(&after)
				return true
			}
			return false
		})
	})
	c.Env.Run()
	if st.Completed < 8000 {
		t.Fatalf("driver completed %d calls over %d passes, want 8 per pass", st.Completed, passes)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocs over 1000 driver passes of 2 connections, want 0", n)
	}
}
