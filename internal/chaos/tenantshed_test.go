package chaos

import "testing"

// TestTenantShedInvariants runs the tenant-shed variant across a small
// seed matrix: the controller must actually move the ladder (the SLO is
// tight under injected loss) and all four reliability invariants must
// hold while it sheds mid-run.
func TestTenantShedInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		out, err := RunTenant(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Result.Pass() {
			t.Errorf("seed %d: invariants violated: %v", seed, out.Result.Violations)
		}
		if len(out.Actions) == 0 {
			t.Errorf("seed %d: controller never moved (windows=%d violations=%d)",
				seed, out.Windows, out.Violations)
		}
	}
}
