package rpccore_test

import (
	"runtime"
	"strings"
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
//
// Allocations are read from the runtime's allocation profile and counted
// only on stacks that pass through RunDriver. Process-wide counters
// (ReadMemStats, testing.AllocsPerRun) also see the runtime's own
// allocations: the scavenger growing its timer heap after a collection, or
// the sudog a stop-the-world allocates when it has to wait for a
// collection's mark termination. Each is an occasional single allocation
// the driver never made.
func TestAllocBudgetRunDriver(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // driverAllocs needs every allocation recorded
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conns := []rpccore.Conn{&echoConn{ids: make([]uint64, 0, 8)}, &echoConn{ids: make([]uint64, 0, 8)}}
	var before, after int64
	var st rpccore.DriverStats
	passes := 0
	c.Hosts[0].Spawn("drv", func(th *host.Thread) {
		st = rpccore.RunDriver(th, conns, rpccore.DriverConfig{Batch: 4, PayloadSize: 16}, sig, func() bool {
			passes++
			switch passes {
			case 100:
				before = driverAllocs()
			case 1100:
				after = driverAllocs()
				return true
			}
			return false
		})
	})
	c.Env.Run()
	if st.Completed < 8000 {
		t.Fatalf("driver completed %d calls over %d passes, want 8 per pass", st.Completed, passes)
	}
	if n := after - before; n != 0 {
		t.Errorf("%d allocs over 1000 driver passes of 2 connections, want 0", n)
	}
}

// driverAllocs returns how many objects have been allocated so far by call
// stacks passing through rpccore.RunDriver, leaving out driverAllocs' own
// (it runs inside RunDriver's stop callback).
func driverAllocs() int64 {
	runtime.GC() // the profile trails by up to two collection cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".driverAllocs") {
				break
			}
			if f.Function == "scalerpc/internal/rpccore.RunDriver" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
