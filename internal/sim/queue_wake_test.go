package sim

import "testing"

// TestQueuePushWakesExactlyOne pins the thundering-herd fix: one Push wakes
// exactly one of the parked consumers (the FIFO-first), and the other N-1
// stay parked — no spurious resume events are dispatched for them.
func TestQueuePushWakesExactlyOne(t *testing.T) {
	const consumers = 8
	e := NewEnv()
	defer e.Close()
	q := NewQueue[int](e)
	got := make([]int, 0, 1)
	order := make([]int, 0, 1)
	for i := 0; i < consumers; i++ {
		i := i
		e.Spawn("c", func(p *Proc) {
			got = append(got, q.Pop(p))
			order = append(order, i)
		})
	}
	// Park everyone.
	e.RunUntil(10)
	if q.sig.Waiting() != consumers {
		t.Fatalf("parked waiters = %d, want %d", q.sig.Waiting(), consumers)
	}
	_, pr0 := e.FiredBreakdown()

	e.At(1, func() { q.Push(42) })
	e.RunUntil(100)

	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got = %v, want exactly [42]", got)
	}
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("woken consumer = %v, want FIFO-first [0]", order)
	}
	_, pr1 := e.FiredBreakdown()
	signalWakes := pr1[tagSignal] - pr0[tagSignal]
	if signalWakes != 1 {
		t.Fatalf("signal wakes after one Push = %d, want 1 (herd not woken)", signalWakes)
	}
	// The other N-1 consumers are still parked.
	if q.sig.Waiting() != consumers-1 {
		t.Fatalf("parked waiters after Push = %d, want %d", q.sig.Waiting(), consumers-1)
	}
}

// TestUseAsyncDoesNotJumpAcquireQueue pins FIFO admission against the
// async-charge fast path: after Release frees the unit and elects a queued
// waiter, a callback running before the waiter's resume event sees a free
// unit. UseAsync must refuse it (the unit is spoken for) so the waiter is
// not re-parked behind the callback's charge.
func TestUseAsyncDoesNotJumpAcquireQueue(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var acquiredAt Time
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		// Scheduled before Release's wake, so it fires at t=100 in the
		// window after the unit is freed but before the elected waiter's
		// resume event runs — exactly the steal window.
		e.At(0, func() {
			if r.UseAsync(50) {
				t.Error("UseAsync charged while an Acquire waiter was queued")
			}
		})
		r.Release()
	})
	e.SpawnAt(10, "waiter", func(p *Proc) {
		r.Acquire(p)
		acquiredAt = e.Now()
		r.Release()
	})
	e.Run()
	if acquiredAt != 100 {
		t.Fatalf("queued waiter acquired at t=%d, want t=100 (queue was jumped)", acquiredAt)
	}
}
