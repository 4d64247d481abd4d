package chaos

import "testing"

// TestRDSQueueMatrix drives the seeded drop+dup schedule across 12 seeds:
// no run may lose or double-apply an element, every worker must drain its
// budget, and — because duplication is the schedule's star — the matrix
// as a whole must show the NIC atomic replay cache absorbing duplicated
// ticket claims.
func TestRDSQueueMatrix(t *testing.T) {
	var replays, ops uint64
	for seed := uint64(0); seed < 12; seed++ {
		res, err := RunRDS(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Pass() {
			t.Errorf("seed %d: invariants violated: %v", seed, res.Violations)
		}
		if res.Dequeued != res.Enqueued {
			t.Errorf("seed %d: enqueued %d != dequeued %d", seed, res.Enqueued, res.Dequeued)
		}
		if res.AtomicOps == 0 {
			t.Errorf("seed %d: no atomics reached the server NIC", seed)
		}
		replays += res.AtomicReplays
		ops += res.AtomicOps
	}
	if replays == 0 {
		t.Errorf("no atomic replays across the matrix (ops=%d): dup schedule never hit a ticket claim", ops)
	}
}

// TestRDSQueueReplayAbsorbed pins seeds whose schedules duplicate at least
// one FetchAdd: the replay cache must answer those without re-executing,
// and the multiset invariant proves no ticket was handed out twice.
func TestRDSQueueReplayAbsorbed(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res, err := RunRDS(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Pass() {
			t.Errorf("seed %d: invariants violated: %v", seed, res.Violations)
		}
		if res.AtomicReplays == 0 {
			t.Errorf("seed %d: expected duplicated atomics absorbed by the replay cache, saw none", seed)
		}
	}
}
