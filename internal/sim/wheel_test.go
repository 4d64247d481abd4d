package sim

import (
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

// TestWheelMatchesHeapRandom schedules identical random event streams into
// the wheel and the heap — interleaving schedules with partial drains, so
// the wheel's cascades and horizon clamping are exercised — and asserts the
// two dequeue in exactly the same (at, seq) order.
func TestWheelMatchesHeapRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		w := newTimingWheel()
		h := &heapSched{}
		rng := seed * 2654435761
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var now Time
		var seq uint64
		for round := 0; round < 50; round++ {
			// Schedule a burst at/after now. Deltas span several wheel
			// levels, including exact-now and block-crossing values.
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
				w.schedule(ev)
				h.schedule(ev)
			}
			// Drain up to a random horizon ≥ now.
			until := now + Time(next()%(1<<22))
			for {
				we, wok := w.next(until)
				he, hok := h.next(until)
				if wok != hok {
					t.Fatalf("seed %d round %d: wheel ok=%v heap ok=%v", seed, round, wok, hok)
				}
				if !wok {
					break
				}
				if we.at != he.at || we.seq != he.seq {
					t.Fatalf("seed %d round %d: wheel (%d,%d) != heap (%d,%d)",
						seed, round, we.at, we.seq, he.at, he.seq)
				}
				if we.at < now {
					t.Fatalf("seed %d: time regressed: %d < %d", seed, we.at, now)
				}
				now = we.at
				if w.pending() != h.pending() {
					t.Fatalf("seed %d: pending %d != %d", seed, w.pending(), h.pending())
				}
			}
			if until > now {
				now = until
			}
		}
		// Full drain must also agree.
		wRest := drain(w, maxTime)
		hRest := drain(h, maxTime)
		if len(wRest) != len(hRest) {
			t.Fatalf("seed %d: final drain %d vs %d events", seed, len(wRest), len(hRest))
		}
		for i := range wRest {
			if wRest[i] != hRest[i] {
				t.Fatalf("seed %d: final drain diverges at %d: %v vs %v", seed, i, wRest[i], hRest[i])
			}
		}
	}
}

// TestWheelHorizonDoesNotLoseEvents reproduces the RunUntil pattern loadgen
// relies on: repeatedly run to a horizon, then schedule events earlier than
// the wheel's internal position would be if it had (incorrectly) advanced
// all the way to the horizon.
func TestWheelHorizonDoesNotLoseEvents(t *testing.T) {
	e := NewEnv()
	var fired []Time
	e.At(10_000, func() { fired = append(fired, e.Now()) })
	e.RunUntil(500) // horizon far before the first event
	// Schedule an event at 600 — earlier than the pending 10_000 event and
	// earlier than any 256-block the wheel could have skipped to.
	e.At(100, func() { fired = append(fired, e.Now()) })
	e.RunUntil(20_000)
	if len(fired) != 2 || fired[0] != 600 || fired[1] != 10_000 {
		t.Fatalf("fired = %v, want [600 10000]", fired)
	}
}

// TestWheelBlockCrossing pins the case that breaks delta-based level
// selection: an event a few ticks away that crosses a 256-block boundary
// must not fire before an earlier event placed at a higher level.
func TestWheelBlockCrossing(t *testing.T) {
	e := NewEnv()
	var order []Time
	record := func() { order = append(order, e.Now()) }
	// Advance the clock to 250 so the next schedules straddle block 0/1.
	e.At(250, func() {
		e.At(270, record) // at=520: crosses into block 2 at level 0 distance
		e.At(260, record) // at=510: earlier, same destination block
		e.At(5, record)   // at=255: same block
	})
	e.Run()
	want := []Time{255, 510, 520}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestWheelStaleTailThenSchedule pins the cur/now desync hazard: Run()
// drains a queue whose last event is a stale timer (its signal won), which
// advances the wheel's cursor far past Env.now since stale events are
// dropped without dispatching. Scheduling afterwards at now+delay lands
// behind the cursor and must neither panic nor lose or reorder events.
func TestWheelStaleTailThenSchedule(t *testing.T) {
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
	// All behind the wheel's cursor (≈1000), deliberately scheduled out of
	// order, plus one beyond it.
	e.At(20, rec)
	e.At(5, rec)
	e.At(5, rec) // equal timestamp: must keep schedule (seq) order
	e.At(2000, rec)
	// A horizon short of the stale cursor must still release the early pair.
	e.RunUntil(15)
	if len(fired) != 2 || fired[0] != 15 || fired[1] != 15 {
		t.Fatalf("fired after RunUntil(15) = %v, want [15 15]", fired)
	}
	e.Run()
	want := []Time{15, 15, 30, 2010}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestWheelBehindCursorMatchesHeap exercises the same aftermath directly at
// the scheduler level: after a drain leaves the wheel's cursor ahead of the
// Env clock, behind-cursor schedules must dequeue in exactly the heap's
// (at, seq) order, and a horizon shorter than the cursor must still release
// them.
func TestWheelBehindCursorMatchesHeap(t *testing.T) {
	w := newTimingWheel()
	h := &heapSched{}
	both := func(ev event) { w.schedule(ev); h.schedule(ev) }
	// A lone far-future event, drained: the Env would have dropped it as a
	// stale timer, leaving the cursor at 1010 while the clock stayed behind.
	both(event{at: 1010, seq: 1, fn: func(any) {}})
	drain(w, maxTime)
	drain(h, maxTime)
	// Fresh events behind the cursor, out of order, plus one at the cursor
	// and one beyond it.
	both(event{at: 20, seq: 2, fn: func(any) {}})
	both(event{at: 15, seq: 3, fn: func(any) {}})
	both(event{at: 15, seq: 4, fn: func(any) {}})
	both(event{at: 1010, seq: 5, fn: func(any) {}})
	both(event{at: 4000, seq: 6, fn: func(any) {}})
	check := func(until Time, want [][2]uint64) {
		t.Helper()
		wGot := drain(w, until)
		hGot := drain(h, until)
		if len(wGot) != len(want) || len(hGot) != len(want) {
			t.Fatalf("drain(%d): wheel %v heap %v, want %v", until, wGot, hGot, want)
		}
		for i := range want {
			if wGot[i] != want[i] || hGot[i] != want[i] {
				t.Fatalf("drain(%d): wheel %v heap %v, want %v", until, wGot, hGot, want)
			}
		}
	}
	check(20, [][2]uint64{{15, 3}, {15, 4}, {20, 2}})
	check(maxTime, [][2]uint64{{1010, 5}, {4000, 6}})
	if w.pending() != 0 || h.pending() != 0 {
		t.Fatalf("pending after full drain: wheel %d heap %d", w.pending(), h.pending())
	}
}

func BenchmarkWheelScheduleFire(b *testing.B) {
	// Uniform random horizons across four decades: the classic calendar
	// queue hold pattern.
	w := newTimingWheel()
	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var now Time
	var seq uint64
	// Prime with a standing population.
	for i := 0; i < 4096; i++ {
		seq++
		w.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, ok := w.next(maxTime)
		if !ok {
			b.Fatal("wheel drained")
		}
		now = ev.at
		seq++
		w.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
	}
}

func BenchmarkHeapScheduleFire(b *testing.B) {
	h := &heapSched{}
	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var now Time
	var seq uint64
	for i := 0; i < 4096; i++ {
		seq++
		h.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, ok := h.next(maxTime)
		if !ok {
			b.Fatal("heap drained")
		}
		now = ev.at
		seq++
		h.schedule(event{at: now + Time(next()%65536) + 1, seq: seq, fn: func(any) {}})
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
