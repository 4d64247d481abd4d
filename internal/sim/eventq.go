package sim

// scheduler is the event-queue abstraction behind Env. eventQueue is the one
// implementation; the package's tests add a binary heap as a reference and
// replay seeded runs on both to assert identical event order.
type scheduler interface {
	// schedule enqueues ev. Env schedules at now+delay, so ev.at may lie
	// behind events already dispatched only when those were stale wake-ups,
	// which leave the clock where it was; it still fires in (at, seq) order.
	schedule(ev event)
	// next dequeues the earliest event with at ≤ until, in (at, seq) order.
	// ok is false when no such event exists; later events stay queued.
	next(until Time) (ev event, ok bool)
	// clear drops every queued event.
	clear()
}

// eventCap is the initial capacity of an environment's queue: 1 024 events
// (56 KB), enough that a model's standing population of timers and
// continuations does not regrow the slice in a measured run.
const eventCap = 1024

// eventQueue is a 4-ary min-heap on (at, seq). (at, seq) is a strict total
// order — seq is unique — so it dequeues exactly as any other correct
// priority queue does. The sifts move a hole and write the moving event
// once, rather than swapping 56 B events level by level, and the fan-out of
// four halves the depth of a binary heap.
type eventQueue struct{ h []event }

func newEventQueue() *eventQueue { return &eventQueue{h: make([]event, 0, eventCap)} }

func (q *eventQueue) clear() { q.h = nil }

// before reports whether a fires ahead of b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) schedule(ev event) {
	h := append(q.h, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !before(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.h = h
}

func (q *eventQueue) next(until Time) (event, bool) {
	h := q.h
	if len(h) == 0 || h[0].at > until {
		return event{}, false
	}
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop proc/closure references
	h = h[:n]
	q.h = h
	if n == 0 {
		return top, true
	}
	// Sift the last event down from the root's hole.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if before(&h[j], &h[m]) {
				m = j
			}
		}
		if !before(&h[m], &last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top, true
}
