package sim

// heapSched is a binary-heap scheduler kept as the reference implementation:
// the event-queue tests dequeue identical streams from both, and
// TestSchedulerEquivalence replays whole seeded runs on it (see
// UseHeapScheduler).
type heapSched struct{ h eventHeap }

func (s *heapSched) clear() { s.h = nil }
func (s *heapSched) schedule(ev event) {
	s.h = append(s.h, ev)
	s.h.up(len(s.h) - 1)
}

func (s *heapSched) next(until Time) (event, bool) {
	if len(s.h) == 0 || s.h[0].at > until {
		return event{}, false
	}
	ev := s.h[0]
	n := len(s.h) - 1
	s.h[0] = s.h[n]
	s.h[n] = event{}
	s.h = s.h[:n]
	s.h.down(0)
	return ev, true
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
