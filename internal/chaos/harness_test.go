package chaos

import (
	"strings"
	"testing"
)

// TestCheckersFire feeds the shared checkers hand-built ledgers and
// clients. Every matrix passes with zero violations, so without this a
// checker that stopped reporting would leave them all green.
func TestCheckersFire(t *testing.T) {
	stuck := func(n int) []*clientRun {
		runs := make([]*clientRun, n)
		for i := range runs {
			runs[i] = &clientRun{}
		}
		return runs
	}
	cases := []struct {
		name  string
		check func(r *run) (count, want uint64) // a checker's return value and its expected value
		n     int                               // violations expected on the list
		first string                            // substring of the first one
	}{
		{"executed twice", func(r *run) (uint64, uint64) {
			return (execs{token(1, 7): 2, token(2, 0): 1}).atMostOnce(r), 1
		}, 1, "token (client 1, seq 7) executed 2 times"},
		{"acked, never executed", func(r *run) (uint64, uint64) {
			runs := []*clientRun{{acked: []uint64{token(3, 1), token(3, 2)}, done: true}}
			return uint64(r.checkClients("client", runs, execs{token(3, 2): 1})), 0
		}, 1, "client 0: token (client 3, seq 1) acked but never executed"},
		{"acked, applied in either ledger", func(r *run) (uint64, uint64) {
			runs := []*clientRun{{acked: []uint64{token(4, 1), token(4, 2)}, done: true}}
			return uint64(r.checkClients("kv client", runs, execs{token(4, 1): 1}, execs{token(4, 2): 1})), 0
		}, 0, ""},
		{"stuck client", func(r *run) (uint64, uint64) {
			return uint64(r.checkClients("client", append(stuck(1), &clientRun{done: true}))), 1
		}, 1, "client 0 stuck within the budget"},
		{"list capped, count exact", func(r *run) (uint64, uint64) {
			return uint64(r.checkClients("client", stuck(20))), 20
		}, maxViolations, "client 0 stuck"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &run{}
			if got, want := c.check(r); got != want {
				t.Errorf("checker returned %d, want %d", got, want)
			}
			if len(r.violations) != c.n {
				t.Fatalf("%d violations, want %d: %q", len(r.violations), c.n, r.violations)
			}
			if c.n > 0 && !strings.Contains(r.violations[0], c.first) {
				t.Errorf("first violation %q, want it to contain %q", r.violations[0], c.first)
			}
		})
	}
}
