package txn

import "scalerpc/internal/host"

// PollIdle runs one pollConns pass with no calls pending, for the
// allocation-budget test (which lives in package txn_test so that it can
// stand the coordinator on a real shard deployment).
func (c *Coordinator) PollIdle(t *host.Thread) int { return c.pollConns(t, nil) }
