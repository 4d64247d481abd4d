package chaos

import "testing"

// TestShardFailoverMatrix drives the seeded crash schedule across 20 seeds:
// every run must fail over, keep all four invariants and fail no put back
// to its writer (the router retargets only against a newer map, so stale
// bounces inside one refetch window cannot spend the redirect budget).
func TestShardFailoverMatrix(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		res, err := RunShard(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Pass() {
			t.Errorf("seed %d: invariants violated: %v", seed, res.Violations)
		}
		if res.Failovers == 0 || res.FinalEpoch < 2 {
			t.Errorf("seed %d: no failover (epoch %d)", seed, res.FinalEpoch)
		}
		if res.Acked == 0 || res.PutFailures != 0 {
			t.Errorf("seed %d: %d acked puts, %d failed", seed, res.Acked, res.PutFailures)
		}
		if res.TxnCommits == 0 {
			t.Errorf("seed %d: no cross-shard commits", seed)
		}
	}
}
