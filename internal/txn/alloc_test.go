package txn_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
)

// TestAllocBudgetIdlePollConns: a coordinator pass with nothing in flight
// polls its 16 partition endpoints, each of which polls the router's 4 wire
// conns — 16 + 16×4 callbacks — and allocates nothing, because every one of
// them is bound once. (These were 80 escaping closures per pass.)
func TestAllocBudgetIdlePollConns(t *testing.T) {
	c := cluster.New(cluster.Default(7))
	defer c.Close()
	store := mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
	d := shard.Deploy(c, shard.DefaultDeployConfig(16, []int{0, 1, 2, 3}, 4, store))
	ch := c.Hosts[5]

	allocs := -1.0
	ch.Spawn("coord", func(th *host.Thread) {
		co := d.NewCoordinator(d.NewRouter(ch, shard.DefaultRouterConfig()), 1)
		allocs = testing.AllocsPerRun(100, func() {
			if co.PollIdle(th) != 0 {
				t.Error("idle pass matched a response")
			}
		})
	})
	for allocs < 0 && c.Env.Now() < 10*sim.Millisecond {
		c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
	}
	if allocs != 0 {
		t.Errorf("idle pollConns pass over 16 PartConns: %v allocs, want 0", allocs)
	}
}
