package chaos

import "testing"

// TestShardFailoverMatrix drives the seeded crash schedule across 20 seeds:
// every run must fail over and keep all four invariants.
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
		if res.Acked == 0 {
			t.Errorf("seed %d: no acked puts", seed)
		}
		if res.TxnCommits == 0 {
			t.Errorf("seed %d: no cross-shard commits", seed)
		}
	}
}
