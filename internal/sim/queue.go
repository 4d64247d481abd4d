package sim

// Queue is an unbounded FIFO used to pass values between processes and
// callbacks. Pushes never block; Pop blocks the calling process until a
// value is available. Pushing from callbacks is allowed.
type Queue[T any] struct {
	items []T
	head  int
	sig   *Signal
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] {
	return &Queue[T]{sig: NewSignal(e)}
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes one blocked consumer.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	// Wake exactly one consumer (FIFO), not the whole herd: broadcasting
	// costs a scheduler round trip per parked consumer only for all but one
	// of them to find the queue empty and park again.
	q.sig.Wake(1)
}

// TryPop removes and returns the oldest value, if any.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Pop blocks p until a value is available and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.sig.Wait(p)
	}
}

// Resource is a counting resource with FIFO admission, used to model CPU
// cores: a simulated thread acquires a unit, sleeps for its compute time,
// and releases the unit. While all units are busy, later acquirers queue.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	sig      *Signal
	// queueLen tracks waiters for observability.
	queueLen int
	// BusyTime accumulates unit-nanoseconds of usage for utilization stats.
	BusyTime int64
	lastTick Time
	// asyncRelease returns a UseAsync unit; bound once so that UseAsync
	// schedules it without building a closure per charge.
	asyncRelease func()
}

// NewResource returns a resource with the given number of units.
func NewResource(e *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	r := &Resource{env: e, capacity: capacity, sig: NewSignal(e)}
	r.asyncRelease = func() {
		r.tick()
		r.inUse--
		r.sig.Wake(1)
	}
	return r
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) tick() {
	now := r.env.now
	r.BusyTime += int64(now-r.lastTick) * int64(r.inUse)
	r.lastTick = now
}

// Acquire blocks p until a unit is free and takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.queueLen++
		r.sig.Wait(p)
		r.queueLen--
	}
	r.tick()
	r.inUse++
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	r.tick()
	r.inUse--
	r.sig.Wake(1)
}

// Use acquires a unit, sleeps for cost, and releases it. This is the
// standard way to charge CPU time on a core pool.
func (r *Resource) Use(p *Proc, cost Duration) {
	r.Acquire(p)
	p.Sleep(cost)
	r.Release()
}

// UseAsync charges cost unit-nanoseconds of busy time starting now without
// blocking the caller: a free unit is taken immediately and returned by a
// scheduler callback cost later, so no process wake-up is involved. Returns
// false — charging nothing — when every unit is busy OR any Acquire waiter
// is queued; callers must then fall back to the blocking Use so FIFO
// admission under contention is preserved. The waiter check matters: after a
// Release elects a waiter, the freed unit is spoken for until the waiter's
// resume event runs, and a callback grabbing it in that window would re-park
// the waiter and jump the queue.
func (r *Resource) UseAsync(cost Duration) bool {
	if cost <= 0 {
		return true
	}
	if r.inUse >= r.capacity || r.queueLen > 0 {
		return false
	}
	r.tick()
	r.inUse++
	r.env.At(cost, r.asyncRelease)
	return true
}

// Utilization returns average busy units since the start of the simulation,
// as a fraction of capacity.
func (r *Resource) Utilization() float64 {
	r.tick()
	if r.env.now == 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(int64(r.env.now)*int64(r.capacity))
}
