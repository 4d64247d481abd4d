package sim

import "testing"

// The AllocBudget tests pin the steady-state hot loop allocation-free. They
// are deterministic (testing.AllocsPerRun counts mallocs, no wall clock) and
// run in tier-1; the ledger's host_allocs_per_op shows the same thing per
// workload but cannot gate a change.

// TestAllocBudgetAtArg: scheduling and dispatching closure-free events
// allocates nothing once the queue's slot arrays have been built, on either
// scheduler.
func TestAllocBudgetAtArg(t *testing.T) {
	for _, sched := range []string{"wheel", "heap"} {
		prev := SetDefaultScheduler(sched)
		e := NewEnv()
		SetDefaultScheduler(prev)
		fired := 0
		count := func(arg any) { *arg.(*int)++ }
		round := func() {
			for i := 0; i < 64; i++ {
				e.AtArg(Duration(i*i%700), count, &fired) // ties, several wheel levels
			}
			e.Run()
		}
		round() // grow the queue
		if got := testing.AllocsPerRun(50, round); got != 0 {
			t.Errorf("%s: %v allocs per 64 AtArg events, want 0", sched, got)
		}
		if fired != 64*52 {
			t.Errorf("%s: fired %d events, want %d", sched, fired, 64*52)
		}
		e.Close()
	}
}

// TestAllocBudgetUseAsync: a callback-released CPU charge builds no closure.
func TestAllocBudgetUseAsync(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 2)
	round := func() {
		if !r.UseAsync(5) || !r.UseAsync(7) {
			t.Fatal("UseAsync refused a free unit")
		}
		e.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("%v allocs per UseAsync pair, want 0", got)
	}
	if r.InUse() != 0 || r.BusyTime != 12*102 {
		t.Errorf("inUse=%d busy=%d after 102 rounds, want 0 and %d", r.InUse(), r.BusyTime, 12*102)
	}
}
