package shard

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// silentConn is a wire connection that accepts every request and never
// answers, so a leader stays outstanding for as long as a test runs.
type silentConn struct{ sends int }

func (c *silentConn) TrySend(*host.Thread, uint8, []byte, uint64) bool { c.sends++; return true }
func (c *silentConn) Poll(*host.Thread, func(rpccore.Response)) int    { return 0 }
func (c *silentConn) Outstanding() int                                 { return 0 }
func (c *silentConn) SlotCount() int                                   { return 64 }

// TestCoalesceWindow pins the join guard on hot-key reads: an identical get
// arriving within coalesceWindow of an outstanding leader joins it, and one
// arriving later goes to the wire itself although the leader is still
// outstanding.
func TestCoalesceWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gap       sim.Duration
		wire      int
		coalesced float64
	}{
		{"joins inside the window", coalesceWindow - sim.Microsecond, 1, 1},
		{"wire after the window", coalesceWindow + sim.Microsecond, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(1))
			defer c.Close()
			h := c.Hosts[0]
			conn := &silentConn{}
			cfg := DefaultRouterConfig()
			cfg.Coalesce = true
			r := NewRouter(h, NewMap(1, []int{0}), map[int]rpccore.Conn{0: conn}, sim.NewSignal(c.Env), cfg, nil)
			h.Spawn("readers", func(th *host.Thread) {
				if !r.KVConn(1).TrySend(th, HKVGet, key8(7), 1) {
					t.Error("leader get refused")
				}
				th.P.Sleep(tc.gap)
				if !r.KVConn(2).TrySend(th, HKVGet, key8(7), 1) {
					t.Error("follower get refused")
				}
			})
			c.Env.RunUntil(2 * coalesceWindow)
			coalesced, _ := c.Telemetry.Value("shard.coalesced")
			if conn.sends != tc.wire || coalesced != tc.coalesced {
				t.Fatalf("wire requests = %d, shard.coalesced = %v; want %d and %v",
					conn.sends, coalesced, tc.wire, tc.coalesced)
			}
		})
	}
}
