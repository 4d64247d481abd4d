package sim

import (
	"slices"
	"testing"
)

// drain pops every event ≤ until and returns the (at, seq) sequence.
func drain(s scheduler, until Time) [][2]uint64 {
	var out [][2]uint64
	for {
		ev, ok := s.next(until)
		if !ok {
			return out
		}
		out = append(out, [2]uint64{uint64(ev.at), ev.seq})
	}
}

// xorshift returns a deterministic 64-bit generator seeded with seed.
func xorshift(seed uint64) func() uint64 {
	rng := seed
	return func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
}

// TestEventQueueMatchesHeapRandom schedules identical random event streams
// into the event queue and the reference heap — interleaving schedules with
// partial drains to random horizons, with many equal timestamps — and asserts
// the two dequeue in exactly the same (at, seq) order.
func TestEventQueueMatchesHeapRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		q := newEventQueue()
		h := &heapSched{}
		next := xorshift(seed * 2654435761)
		var now Time
		var seq uint64
		for round := 0; round < 50; round++ {
			// Schedule a burst at/after now. Deltas span many decades,
			// with exact-now and near-now values to force ties.
			n := int(next()%20) + 1
			for i := 0; i < n; i++ {
				var d Time
				switch next() % 5 {
				case 0:
					d = 0
				case 1:
					d = Time(next() % 16)
				case 2:
					d = Time(next() % 4096)
				case 3:
					d = Time(next() % (1 << 20))
				default:
					d = Time(next() % (1 << 36))
				}
				seq++
				ev := event{at: now + d, seq: seq, fn: func(any) {}}
				q.schedule(ev)
				h.schedule(ev)
			}
			// Drain up to a random horizon ≥ now.
			until := now + Time(next()%(1<<22))
			for {
				qe, qok := q.next(until)
				he, hok := h.next(until)
				if qok != hok {
					t.Fatalf("seed %d round %d: queue ok=%v heap ok=%v", seed, round, qok, hok)
				}
				if !qok {
					break
				}
				if qe.at != he.at || qe.seq != he.seq {
					t.Fatalf("seed %d round %d: queue (%d,%d) != heap (%d,%d)",
						seed, round, qe.at, qe.seq, he.at, he.seq)
				}
				if qe.at < now {
					t.Fatalf("seed %d: time regressed: %d < %d", seed, qe.at, now)
				}
				now = qe.at
				if len(q.h) != len(h.h) {
					t.Fatalf("seed %d: queued %d != %d", seed, len(q.h), len(h.h))
				}
			}
			if until > now {
				now = until
			}
		}
		// Full drain must also agree.
		qRest := drain(q, maxTime)
		hRest := drain(h, maxTime)
		if !slices.Equal(qRest, hRest) {
			t.Fatalf("seed %d: final drain diverges:\nqueue %v\nheap  %v", seed, qRest, hRest)
		}
	}
}

// TestEventQueueHorizonDoesNotLoseEvents reproduces the RunUntil pattern
// loadgen relies on: run to a horizon short of the first queued event, then
// schedule an event earlier than that one.
func TestEventQueueHorizonDoesNotLoseEvents(t *testing.T) {
	e := NewEnv()
	var fired []Time
	e.At(10_000, func() { fired = append(fired, e.Now()) })
	e.RunUntil(500) // horizon far before the first event
	// At 600: earlier than the queued event.
	e.At(100, func() { fired = append(fired, e.Now()) })
	e.RunUntil(20_000)
	if len(fired) != 2 || fired[0] != 600 || fired[1] != 10_000 {
		t.Fatalf("fired = %v, want [600 10000]", fired)
	}
}

// TestEventQueueStaleTailThenSchedule pins the aftermath of a stale tail:
// Run() drains a queue whose last event is a stale timer (its signal won),
// which is dropped without moving Env.now. Scheduling afterwards at
// now+delay lands behind the last dequeued instant and must neither lose nor
// reorder events.
func TestEventQueueStaleTailThenSchedule(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	e.Spawn("w", func(p *Proc) {
		if s.WaitTimeout(p, 1000) {
			t.Error("wait should have been won by the signal, not the timer")
		}
	})
	e.At(10, func() { s.Wake(1) })
	e.Run() // drains the stale t=1000 timer; the clock stays at 10
	if e.Now() != 10 {
		t.Fatalf("now = %d after drain, want 10", e.Now())
	}
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	// All behind the dropped timer's instant, deliberately scheduled out of
	// order, plus one beyond it.
	e.At(20, rec)
	e.At(5, rec)
	e.At(5, rec) // equal timestamp: must keep schedule (seq) order
	e.At(2000, rec)
	// A horizon short of the dropped instant must still release the early pair.
	e.RunUntil(15)
	if len(fired) != 2 || fired[0] != 15 || fired[1] != 15 {
		t.Fatalf("fired after RunUntil(15) = %v, want [15 15]", fired)
	}
	e.Run()
	if want := []Time{15, 15, 30, 2010}; !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestEventQueueBehindLastDispatchMatchesHeap exercises the same aftermath
// at the queue level: after a drain has dequeued an instant the Env clock
// never reached (a dropped stale wake-up), events scheduled behind it — out
// of order, with a tie — must dequeue in exactly the heap's (at, seq) order,
// and a horizon short of the dropped instant must still release them. A
// queue that kept a FIFO for the last dequeued instant could misorder here.
func TestEventQueueBehindLastDispatchMatchesHeap(t *testing.T) {
	q := newEventQueue()
	h := &heapSched{}
	both := func(ev event) { q.schedule(ev); h.schedule(ev) }
	// A lone far-future event, drained: the Env would have dropped it as a
	// stale timer, leaving the clock behind 1010.
	both(event{at: 1010, seq: 1, fn: func(any) {}})
	drain(q, maxTime)
	drain(h, maxTime)
	// Fresh events behind that instant, out of order, plus one at it and one
	// beyond it.
	both(event{at: 20, seq: 2, fn: func(any) {}})
	both(event{at: 15, seq: 3, fn: func(any) {}})
	both(event{at: 15, seq: 4, fn: func(any) {}})
	both(event{at: 1010, seq: 5, fn: func(any) {}})
	both(event{at: 4000, seq: 6, fn: func(any) {}})
	check := func(until Time, want [][2]uint64) {
		t.Helper()
		qGot := drain(q, until)
		hGot := drain(h, until)
		if !slices.Equal(qGot, want) || !slices.Equal(hGot, want) {
			t.Fatalf("drain(%d): queue %v heap %v, want %v", until, qGot, hGot, want)
		}
	}
	check(20, [][2]uint64{{15, 3}, {15, 4}, {20, 2}})
	check(maxTime, [][2]uint64{{1010, 5}, {4000, 6}})
	if len(q.h) != 0 || len(h.h) != 0 {
		t.Fatalf("queued after full drain: queue %d heap %d", len(q.h), len(h.h))
	}
}

// BenchmarkScheduleFire holds a standing population of 4 096 events with
// uniform random horizons — the classic calendar-queue hold pattern — and
// times one dequeue plus one schedule, on the event queue and on the
// reference heap.
func BenchmarkScheduleFire(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    func() scheduler
	}{
		{"queue", func() scheduler { return newEventQueue() }},
		{"heap", func() scheduler { return &heapSched{} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := bc.s()
			next := xorshift(99)
			var now Time
			var seq uint64
			for i := 0; i < 4096; i++ {
				seq++
				s.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, ok := s.next(maxTime)
				if !ok {
					b.Fatal("queue drained")
				}
				now = ev.at
				seq++
				s.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
			}
		})
	}
}

// BenchmarkTimerCancel measures the stale-event path: schedule a wake per
// iteration that is invalidated (generation bump) before it fires, the
// pattern WaitTimeout produces under heavy signal traffic.
func BenchmarkTimerCancel(b *testing.B) {
	e := NewEnv()
	s := NewSignal(e)
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			// Timeout far in the future; the Wake below arrives first, so
			// the timer event goes stale and is dropped on pop.
			s.WaitTimeout(p, 1<<20)
		}
	})
	e.At(1, func() {})
	e.RunUntil(0) // let the proc park
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Wake(1)
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	e.Close()
}

func BenchmarkProcWake(b *testing.B) {
	e := NewEnv()
	s := NewSignal(e)
	e.Spawn("w", func(p *Proc) {
		for {
			s.Wait(p)
		}
	})
	e.RunUntil(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Wake(1)
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	e.Close()
}
