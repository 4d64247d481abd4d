package sim

import "testing"

// The AllocBudget tests pin the steady-state hot loop allocation-free. They
// are deterministic (testing.AllocsPerRun counts mallocs, no wall clock) and
// run in tier-1; the ledger's host_allocs_per_op shows the same thing per
// workload but cannot gate a change.

// TestAllocBudgetAtArg: scheduling and dispatching closure-free events
// allocates nothing once the queue has grown.
func TestAllocBudgetAtArg(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	fired := 0
	count := func(arg any) { *arg.(*int)++ }
	round := func() {
		for i := 0; i < 64; i++ {
			e.AtArg(Duration(i*i%700), count, &fired) // ties and spread instants
		}
		e.Run()
	}
	round() // grow the queue
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("%v allocs per 64 AtArg events, want 0", got)
	}
	if fired != 64*52 {
		t.Errorf("fired %d events, want %d", fired, 64*52)
	}
}

// TestAllocBudgetProcWake: switching into a parked process and back
// allocates nothing, whether a timer or a signal woke it.
func TestAllocBudgetProcWake(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	wakes := 0
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
			wakes++
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		for {
			s.Wait(p)
			wakes++
		}
	})
	round := func() {
		s.Wake(1)
		e.RunUntil(e.Now() + 1)
	}
	round() // start both and park them
	wakes = 0
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("%v allocs per timer wake plus signal wake, want 0", got)
	}
	if wakes != 2*101 { // AllocsPerRun's warm-up call plus 100
		t.Errorf("%d wakes after 101 rounds, want %d", wakes, 2*101)
	}
}

// TestAllocBudgetTimedOutWait: a WaitTimeout that times out on a signal
// nobody wakes allocates nothing once warm: its entry leaves the signal, so
// the waiter list does not grow. Each round is 10 000 timeouts, enough that
// a list growing by appends reallocates more than once a round.
func TestAllocBudgetTimedOutWait(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	timeouts := 0
	e.Spawn("poller", func(p *Proc) {
		for {
			if s.WaitTimeout(p, 1) {
				timeouts++
			}
		}
	})
	round := func() { e.RunUntil(e.Now() + 10000) }
	round()
	timeouts = 0
	if got := testing.AllocsPerRun(5, round); got != 0 {
		t.Errorf("%v allocs per 10 000 timed-out waits, want 0", got)
	}
	if timeouts != 6*10000 || len(s.waiters) != 1 { // the poller's current wait
		t.Errorf("%d timeouts, %d entries after 6 rounds, want %d and 1", timeouts, len(s.waiters), 6*10000)
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
