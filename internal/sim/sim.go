// Processes are iter.Pull coroutines (Go 1.23). go.mod keeps go 1.22, the
// version the benchmark module that requires this one declares, so this
// build line raises the file's language version instead.

//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in integer nanoseconds and
// executes two kinds of work:
//
//   - Processes (Proc): coroutines that model threads of execution (client
//     coroutines, server worker threads). A process runs exclusively — the
//     scheduler switches into exactly one process at a time and the process
//     switches back when it blocks — so process code needs no locking and
//     the whole simulation is deterministic for a given seed and
//     configuration.
//
//   - Callbacks: plain functions scheduled with Env.At or Env.AtArg,
//     executed inline by the scheduler. These are the cheap event-driven
//     path used by hardware models (NIC engines, fabric links) where a
//     process switch per event would dominate runtime. Callbacks must not
//     block.
//
// Determinism: events fire in (time, sequence) order; the sequence number is
// assigned at scheduling time, so two events scheduled for the same instant
// fire in the order they were created. The event queue is a 4-ary heap
// (see eventq.go); the package's tests keep a binary heap as its reference
// implementation.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
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

// killedPanic is the sentinel panic value used to unwind blocked processes
// when the environment shuts down.
type killedPanic struct{}

// event is a single entry in the scheduler queue. A callback event runs
// fn(arg): carrying the argument in the event is what lets hot paths
// schedule a continuation without building a closure (see AtArg). A process
// wake-up has a nil fn and the *Proc in arg: the queue copies events on every
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

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create environments with NewEnv.
type Env struct {
	now     Time
	seq     uint64
	fired   uint64
	firedCB uint64
	firedPr [tagCount]uint64
	sched   scheduler
	procs   map[*Proc]struct{}
	closed  bool
	// beforeRun holds what BeforeRun queued, for the next RunUntil.
	beforeRun []func()
}

// newScheduler builds the event queue of each new environment. Only the
// package's tests replace it, to replay runs on the reference heap.
var newScheduler = func() scheduler { return newEventQueue() }

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	return &Env{
		sched: newScheduler(),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

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

// Proc is a simulated process. Its body runs as a coroutine (iter.Pull):
// the scheduler switches into it for each wake-up and it switches back when
// it blocks — a direct hand-off, with no channel and no trip through the Go
// scheduler. All methods that block (Sleep, Wait*) must be called only from
// the process's own body.
type Proc struct {
	Name  string
	env   *Env
	next  func() (struct{}, bool) // switch into the body; false once it has returned
	stop  func()                  // unwind a parked body (Close)
	yield func(struct{}) bool     // switch back to the scheduler; false once stopped
	gen   uint64                  // wake generation; bumping it cancels pending wake sources
	tag   int                     // wake tag of the event that resumed the process
	done  bool
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
// The body first runs when its start event fires; until then the coroutine
// stays parked, so a process closed before it starts never runs.
func (e *Env) SpawnAt(delay Duration, name string, fn func(*Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{Name: name, env: e}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.recoverBody()
		fn(p)
	})
	e.procs[p] = struct{}{}
	e.scheduleProc(p, delay, tagStart)
	return p
}

// recoverBody ends a process body. A kill (Close) unwinds quietly. Any other
// panic is re-raised naming the process and carrying its stack: iter.Pull
// re-panics in the caller of Run, where the body's frames are gone.
func (p *Proc) recoverBody() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(killedPanic); ok {
		return
	}
	panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.Name, r, debug.Stack()))
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

// block switches back to the scheduler and, once resumed, returns the tag of
// the wake source. A process stopped by Close unwinds from here instead.
func (p *Proc) block() int {
	if !p.yield(struct{}{}) {
		panic(killedPanic{})
	}
	return p.tag
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

// BeforeRun queues fn to run once, at the start of the next RunUntil (or
// Run), before it dispatches any event. It is for set-up that must end
// before simulated time starts, and it schedules and fires no event.
func (e *Env) BeforeRun(fn func()) { e.beforeRun = append(e.beforeRun, fn) }

// RunUntil processes events with timestamps ≤ until, then sets the clock to
// until (if it advanced that far) and returns it. Events beyond the horizon
// stay queued; RunUntil may be called repeatedly.
func (e *Env) RunUntil(until Time) Time {
	for len(e.beforeRun) > 0 {
		fn := e.beforeRun[0]
		e.beforeRun = e.beforeRun[1:]
		fn()
	}
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
		p.tag = ev.tag
		if _, ok := p.next(); !ok {
			p.done = true
			delete(e.procs, p)
		}
	}
	if e.now < until && until < maxTime {
		e.now = until
	}
	return e.now
}

// Fired returns the number of events dispatched so far (callbacks run plus
// process resumes; stale wake-ups that were dropped do not count). It is the
// denominator for wall-clock events/sec measurements.
func (e *Env) Fired() uint64 { return e.fired }

// FiredBreakdown returns the dispatched-event mix: callbacks and process
// resumes by wake source (start, timer, signal, queue, resource). The
// breakdown shows what a macro benchmark is actually paying for — process
// resumes cost two coroutine switches, callbacks do not.
func (e *Env) FiredBreakdown() (callbacks uint64, procByTag [5]uint64) {
	copy(procByTag[:], e.firedPr[:])
	return e.firedCB, procByTag
}

// Close terminates every live process so no coroutines leak: a parked body
// unwinds from its blocking call, running its deferred calls, and a body
// that never started never runs. The environment must not be used
// afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := range e.procs {
		p.gen++
		p.stop()
	}
	e.procs = nil
	e.sched.clear()
}

// Signal is a broadcast/wake-one condition variable for processes. Waiters
// are woken in FIFO order at the current instant.
//
// A waiter's entry leaves the list when Wake picks it, or, for a
// WaitTimeout whose timer fires first, when the process resumes from the
// timeout and removes it. The only stale entries that can remain are those
// of processes Close unwound while parked; Wake skips and drops them.
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
	w := waiter{p, p.gen}
	s.waiters = append(s.waiters, w)
	p.env.scheduleProc(p, d, tagTimer)
	if p.block() != tagTimer {
		return false
	}
	s.remove(w)
	return true
}

// remove deletes w's entry, if Wake has not already taken it, keeping the
// rest in FIFO order. A poller that times out is usually the latest to
// park, so the scan runs from the end.
func (s *Signal) remove(w waiter) {
	for i := len(s.waiters) - 1; i >= 0; i-- {
		if s.waiters[i] == w {
			last := len(s.waiters) - 1
			copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[last] = waiter{}
			s.waiters = s.waiters[:last]
			return
		}
	}
}

// Waiting returns the number of processes parked on the signal that no
// Wake has picked yet.
func (s *Signal) Waiting() int {
	n := 0
	for _, w := range s.waiters {
		if !w.proc.done && w.proc.gen == w.gen {
			n++
		}
	}
	return n
}

// Wake resumes up to n waiting processes (all of them if n < 0). Waiters
// whose wake generation has moved on (Close unwound them) are skipped.
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
