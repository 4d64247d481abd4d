// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in integer nanoseconds and
// executes two kinds of work:
//
//   - Processes (Proc): goroutines that model threads of execution (client
//     coroutines, server worker threads). A process runs exclusively — the
//     scheduler hands control to exactly one process at a time and waits for
//     it to block again — so process code needs no locking and the whole
//     simulation is deterministic for a given seed and configuration.
//
//   - Callbacks: plain functions scheduled with Env.At or Env.AtArg,
//     executed inline by the scheduler. These are the cheap event-driven
//     path used by hardware models (NIC engines, fabric links) where
//     spawning a goroutine per event would dominate runtime. Callbacks must
//     not block.
//
// Determinism: events fire in (time, sequence) order; the sequence number is
// assigned at scheduling time, so two events scheduled for the same instant
// fire in the order they were created. The event queue is a hierarchical
// timing wheel (see wheel.go); the original binary heap is retained behind
// SetDefaultScheduler for the equivalence tests.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// maxTime is the sentinel horizon used by Run.
const maxTime Time = 1<<62 - 1

// killed is the sentinel panic value used to unwind blocked processes when
// the environment shuts down.
type killedPanic struct{}

// event is a single entry in the scheduler queue. A callback event runs
// fn(arg): carrying the argument in the event is what lets hot paths
// schedule a continuation without building a closure (see AtArg). A process
// wake-up has a nil fn and the *Proc in arg: the queues copy events on every
// move, and sharing the slot keeps them at 56 bytes. It carries the wake
// generation it was scheduled against; if the process has been woken by a
// different source in the meantime the event is stale and is dropped.
type event struct {
	at  Time
	seq uint64
	gen uint64
	tag int
	fn  func(any)
	arg any
}

// eventHeap is the binary-heap event store behind heapSched. The sift
// routines are inlined here (rather than going through container/heap) so
// events are never boxed through interface{}; extraction order is identical
// because (at, seq) is a strict total order.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// defaultScheduler selects the queue implementation NewEnv builds.
var defaultScheduler = "wheel"

// SetDefaultScheduler selects the event-queue implementation used by
// subsequently created environments: "wheel" (the default hierarchical
// timing wheel) or "heap" (the pre-refactor binary heap, retained as a
// test-only shim for the scheduler-equivalence tests). It returns the
// previous setting so tests can restore it.
func SetDefaultScheduler(name string) string {
	switch name {
	case "wheel", "heap":
	default:
		panic("sim: unknown scheduler " + name)
	}
	prev := defaultScheduler
	defaultScheduler = name
	return prev
}

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create environments with NewEnv.
type Env struct {
	now     Time
	seq     uint64
	fired   uint64
	firedCB uint64
	firedPr [tagCount]uint64
	sched   scheduler
	yield   chan struct{}
	procs   map[*Proc]struct{}
	closed  bool
}

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	var s scheduler
	if defaultScheduler == "heap" {
		s = &heapSched{}
	} else {
		s = newTimingWheel()
	}
	return &Env{
		sched: s,
		yield: make(chan struct{}, 1),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SchedulerName identifies the event-queue implementation backing this
// environment ("wheel" or "heap").
func (e *Env) SchedulerName() string { return e.sched.name() }

// At schedules fn to run after delay. fn executes inline in the scheduler
// and must not block; it may schedule further events, push to queues, wake
// signals and spawn processes.
func (e *Env) At(delay Duration, fn func()) {
	e.AtArg(delay, callFunc, fn)
}

// callFunc adapts At's func() to the event's fn(arg) form. A func value is
// pointer-shaped, so carrying it in arg does not allocate.
func callFunc(fn any) { fn.(func())() }

// AtArg schedules fn(arg) to run after delay, under the same rules as At:
// it consumes one sequence number and fires in the same (time, sequence)
// order as an At call in its place would. It is the closure-free form for
// per-event continuations: fn is bound once (a package-level function, or a
// method value stored at construction) and arg is the pointer a closure
// would have captured, so scheduling allocates nothing.
func (e *Env) AtArg(delay Duration, fn func(any), arg any) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.sched.schedule(event{at: e.now + delay, seq: e.seq, fn: fn, arg: arg})
}

// scheduleProc enqueues a wake-up for p at now+delay against its current
// wake generation, tagged so the process can tell which source woke it.
func (e *Env) scheduleProc(p *Proc, delay Duration, tag int) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.sched.schedule(event{at: e.now + delay, seq: e.seq, arg: p, gen: p.gen, tag: tag})
}

// Proc is a simulated process. All methods that block (Sleep, Wait*) must be
// called only from the process's own goroutine.
type Proc struct {
	Name   string
	env    *Env
	resume chan int // carries the wake tag
	gen    uint64   // wake generation; bumping it cancels pending wake sources
	done   bool
	killed bool
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process executing fn, scheduled to start immediately
// (at the current virtual time, after already-queued events for this
// instant).
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt creates a process executing fn, scheduled to start after delay.
//
// The handshake channels are buffered (capacity 1): the protocol is a strict
// ping-pong — at most one resume token and one yield token are ever in
// flight — so buffering never reorders anything, but it lets each side hand
// off without a synchronous rendezvous, roughly halving the scheduler↔proc
// context switches.
func (e *Env) SpawnAt(delay Duration, name string, fn func(*Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{Name: name, env: e, resume: make(chan int, 1)}
	e.procs[p] = struct{}{}
	go func() {
		defer func() {
			p.done = true
			delete(e.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); ok {
					e.yield <- struct{}{}
					return
				}
				// Re-panic in the scheduler's context would deadlock the
				// handshake; annotate and crash this goroutine instead.
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name, r))
			}
			e.yield <- struct{}{}
		}()
		// Wait for the first schedule directly — without the yield half of
		// the handshake, which belongs to the scheduler's resume cycle.
		// (Spawn may be called from a running process; sending yield here
		// would race with the scheduler's pending receive for that
		// process.)
		<-p.resume
		if p.killed {
			panic(killedPanic{})
		}
		fn(p)
	}()
	e.scheduleProc(p, delay, tagStart)
	return p
}

// Wake tags reported to blocked processes.
const (
	tagStart = iota
	tagTimer
	tagSignal
	tagQueue
	tagResource
	tagCount
)

// block yields control to the scheduler and waits to be resumed, returning
// the tag of the wake source.
func (p *Proc) block() int {
	p.env.yield <- struct{}{}
	t := <-p.resume
	if p.killed {
		panic(killedPanic{})
	}
	return t
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.env.scheduleProc(p, d, tagTimer)
	p.block()
}

// Yield reschedules the process at the current instant, letting every other
// event already queued for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run processes events until the queue is empty, then returns the final
// clock value.
func (e *Env) Run() Time { return e.RunUntil(maxTime) }

// RunUntil processes events with timestamps ≤ until, then sets the clock to
// until (if it advanced that far) and returns it. Events beyond the horizon
// stay queued; RunUntil may be called repeatedly.
func (e *Env) RunUntil(until Time) Time {
	for {
		ev, ok := e.sched.next(until)
		if !ok {
			break
		}
		if ev.fn != nil {
			e.now = ev.at
			e.fired++
			e.firedCB++
			ev.fn(ev.arg)
			continue
		}
		p := ev.arg.(*Proc)
		if p.done || ev.gen != p.gen {
			continue // stale wake-up
		}
		e.now = ev.at
		e.fired++
		e.firedPr[ev.tag]++
		p.gen++ // invalidate competing wake sources
		p.resume <- ev.tag
		<-e.yield
	}
	if e.now < until && until < maxTime {
		e.now = until
	}
	return e.now
}

// SchedulerName identifies the default event-queue implementation new
// environments will use.
func SchedulerName() string { return defaultScheduler }

// Fired returns the number of events dispatched so far (callbacks run plus
// process resumes; stale wake-ups that were dropped do not count). It is the
// denominator for wall-clock events/sec measurements.
func (e *Env) Fired() uint64 { return e.fired }

// FiredBreakdown returns the dispatched-event mix: callbacks and process
// resumes by wake source (start, timer, signal, queue, resource). The
// breakdown shows what a macro benchmark is actually paying for — process
// resumes cost a goroutine handshake, callbacks do not.
func (e *Env) FiredBreakdown() (callbacks uint64, procByTag [5]uint64) {
	copy(procByTag[:], e.firedPr[:])
	return e.firedCB, procByTag
}

// Idle reports whether no events remain.
func (e *Env) Idle() bool { return e.sched.pending() == 0 }

// Pending returns the number of queued events (including stale ones).
func (e *Env) Pending() int { return e.sched.pending() }

// Close terminates every live process so no goroutines leak. The
// environment must not be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := range e.procs {
		if p.done {
			continue
		}
		p.killed = true
		p.gen++
		p.resume <- 0
		<-e.yield
	}
	e.sched.clear()
}

// Signal is a broadcast/wake-one condition variable for processes. Waiters
// are woken in FIFO order at the current instant.
type Signal struct {
	env     *Env
	waiters []waiter
}

type waiter struct {
	proc *Proc
	gen  uint64
}

// NewSignal returns a signal bound to e.
func NewSignal(e *Env) *Signal { return &Signal{env: e} }

// Wait blocks the process until the signal is woken.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, waiter{p, p.gen})
	p.block()
}

// WaitTimeout blocks until the signal is woken or d elapses. It reports
// whether the wait timed out.
func (s *Signal) WaitTimeout(p *Proc, d Duration) (timedOut bool) {
	s.waiters = append(s.waiters, waiter{p, p.gen})
	p.env.scheduleProc(p, d, tagTimer)
	return p.block() == tagTimer
}

// Waiting returns the number of registered waiters (including stale ones).
func (s *Signal) Waiting() int { return len(s.waiters) }

// Wake resumes up to n waiting processes (all of them if n < 0). Waiters
// whose wake generation has moved on (e.g. they timed out) are skipped.
func (s *Signal) Wake(n int) int {
	woken := 0
	rest := s.waiters[:0]
	for i, w := range s.waiters {
		if n >= 0 && woken >= n {
			rest = append(rest, s.waiters[i:]...)
			break
		}
		if w.proc.done || w.proc.gen != w.gen {
			continue // stale waiter
		}
		s.env.seq++
		s.env.sched.schedule(event{at: s.env.now, seq: s.env.seq, arg: w.proc, gen: w.gen, tag: tagSignal})
		woken++
	}
	s.waiters = rest
	return woken
}

// Broadcast wakes every waiter.
func (s *Signal) Broadcast() { s.Wake(-1) }
