package sim

import "math/bits"

// scheduler is the event-queue abstraction behind Env. The hierarchical
// timing wheel is the one implementation; the package's tests add the
// original binary heap as a reference and replay seeded runs on both to
// assert identical event order.
type scheduler interface {
	// schedule enqueues ev. ev.at must be ≥ the timestamp of the last event
	// the caller *dispatched* (Env schedules at now+delay). It may lie behind
	// the queue's internal position: stale events (dropped wake-ups) advance
	// the wheel without advancing Env.now, so a fresh event can legitimately
	// land behind the wheel's cursor and must still fire in (at, seq) order.
	schedule(ev event)
	// next dequeues the earliest event with at ≤ until, in (at, seq) order.
	// ok is false when no such event exists; later events stay queued.
	next(until Time) (ev event, ok bool)
	// pending returns the number of queued events (including stale ones).
	pending() int
	// clear drops every queued event.
	clear()
}

// Timing-wheel geometry: 8 levels of 256 slots each cover the full 64-bit
// timestamp space one byte per level. Level 0 slots hold events whose
// timestamp differs from the wheel position only in the low byte (so a
// level-0 slot holds events at exactly one timestamp); level k holds events
// whose highest differing byte is byte k.
const (
	wheelLevels = 8
	wheelSlots  = 256
	wheelMask   = wheelSlots - 1
)

// timingWheel is a hierarchical timing wheel with the same (at, seq) total
// order as a binary heap, but O(1) schedule and amortized O(1) dispatch,
// and — critically for GC pressure — no per-event interface boxing: events
// live in plain slices whose backing arrays are recycled.
//
// Invariants:
//   - cur never exceeds the timestamp of any pending event, and never
//     exceeds the `until` horizon passed to next (so a later RunUntil with
//     a larger horizon can still schedule events "between" horizons).
//   - every slot slice is seq-sorted: direct inserts happen in seq order
//     (seq increases monotonically), and a cascade from level k fills the
//     empty level-(k-1) slots of the block being entered before any direct
//     insert into that block can occur.
//   - due is (at, seq)-sorted. Normally it holds only events at exactly cur
//     (same-instant follow-ups — At(0), Signal.Wake — append behind with
//     higher seq), but it may additionally carry a leading run of events at
//     timestamps < cur: dispatching a stale event (a dropped wake-up)
//     advances cur without advancing Env.now, so a fresh event scheduled at
//     now+delay can land behind cur and is sort-inserted ahead of the
//     at==cur entries.
type timingWheel struct {
	cur     uint64
	count   int
	due     []event
	dueHead int
	levels  [wheelLevels][wheelSlots][]event
	bitmap  [wheelLevels][wheelSlots / 64]uint64
	// spare recycles drained slot backing arrays to keep steady-state
	// scheduling allocation-free.
	spare [][]event
}

func newTimingWheel() *timingWheel { return &timingWheel{} }

func (w *timingWheel) pending() int { return w.count }

func (w *timingWheel) clear() {
	*w = timingWheel{}
}

func (w *timingWheel) setBit(level, idx int)   { w.bitmap[level][idx>>6] |= 1 << uint(idx&63) }
func (w *timingWheel) clearBit(level, idx int) { w.bitmap[level][idx>>6] &^= 1 << uint(idx&63) }

// lowestSet returns the lowest occupied slot index at level, if any.
func (w *timingWheel) lowestSet(level int) (int, bool) {
	for word, b := range w.bitmap[level] {
		if b != 0 {
			return word<<6 + bits.TrailingZeros64(b), true
		}
	}
	return 0, false
}

func (w *timingWheel) schedule(ev event) {
	at := uint64(ev.at)
	w.count++
	switch {
	case at == w.cur:
		w.due = append(w.due, ev)
	case at > w.cur:
		w.insert(at, ev)
	default:
		// at < cur: a stale dispatch moved the wheel past Env.now, and the
		// caller scheduled relative to Env.now. The event precedes everything
		// queued in the slots (all ≥ cur) but may interleave with earlier
		// behind-cursor events already in due — sort-insert to keep due in
		// (at, seq) order. seq is globally monotonic, so among equal
		// timestamps the new event goes last and comparing at alone suffices.
		// This path is cold (requires a drained stale tail), so the O(n)
		// insert into the tiny due list is irrelevant.
		i := w.dueHead
		for i < len(w.due) && uint64(w.due[i].at) <= at {
			i++
		}
		w.due = append(w.due, event{})
		copy(w.due[i+1:], w.due[i:])
		w.due[i] = ev
	}
}

// insert places ev into the slot owning timestamp at. The level is the
// highest byte in which at differs from cur — picking the level by the
// magnitude of the delta instead would be wrong: an event 2 ticks away can
// still cross a 256-block boundary and must wait at level 1 for the cascade
// that enters its block.
func (w *timingWheel) insert(at uint64, ev event) {
	level := (bits.Len64(at^w.cur) - 1) >> 3
	idx := int(at>>(8*uint(level))) & wheelMask
	slot := w.levels[level][idx]
	if slot == nil {
		if n := len(w.spare); n > 0 {
			slot = w.spare[n-1]
			w.spare = w.spare[:n-1]
		} else {
			slot = make([]event, 0, 8)
		}
	}
	if len(slot) == 0 {
		w.setBit(level, idx)
	}
	w.levels[level][idx] = append(slot, ev)
}

// recycle keeps a drained backing array for reuse. Slots are allocated with
// capacity ≥ 8, so in steady state every drained array is worth keeping and
// scheduling is allocation-free.
func (w *timingWheel) recycle(s []event) {
	if cap(s) >= 4 && len(w.spare) < 256 {
		for i := range s {
			s[i] = event{} // drop proc/closure references
		}
		w.spare = append(w.spare, s[:0])
	}
}

func (w *timingWheel) next(until Time) (event, bool) {
	u := uint64(until)
	for {
		if w.dueHead < len(w.due) {
			// Gate on the head event's own timestamp, not cur: a shorter
			// horizon than a previous run's must not release the at==cur
			// entries, while a behind-cursor event (see schedule) must fire
			// even when cur itself is beyond the horizon.
			if uint64(w.due[w.dueHead].at) > u {
				return event{}, false
			}
			ev := w.due[w.dueHead]
			w.due[w.dueHead] = event{}
			w.dueHead++
			if w.dueHead == len(w.due) {
				w.due = w.due[:0]
				w.dueHead = 0
			}
			w.count--
			return ev, true
		}
		if w.count == 0 {
			return event{}, false
		}
		if !w.advance(u) {
			return event{}, false
		}
	}
}

// advance moves cur to the next occupied position whose block start is ≤ u
// and promotes that slot's events (to due, or to lower levels). It returns
// false when every remaining event lies beyond u.
//
// The lowest occupied level is globally earliest: level-k events lie inside
// the current 256^(k+1) block but outside the current 256^k block, so any
// level-(k-1) event precedes every level-k event.
func (w *timingWheel) advance(u uint64) bool {
	for level := 0; level < wheelLevels; level++ {
		idx, ok := w.lowestSet(level)
		if !ok {
			continue
		}
		shift := 8 * uint(level)
		blockMask := uint64(1)<<(shift+8) - 1
		blockStart := w.cur&^blockMask | uint64(idx)<<shift
		if blockStart > u {
			return false
		}
		slot := w.levels[level][idx]
		w.levels[level][idx] = nil
		w.clearBit(level, idx)
		w.cur = blockStart
		if level == 0 {
			// A level-0 slot holds exactly timestamp blockStart: it becomes
			// the new due list wholesale (already seq-sorted). The old due
			// array has been fully consumed; recycle it.
			w.recycle(w.due)
			w.due = slot
			w.dueHead = 0
		} else {
			// Entering a 256^level block: distribute its events downward.
			// Lower levels are empty (they were scanned first), so each
			// child slot is filled in seq order.
			for _, ev := range slot {
				at := uint64(ev.at)
				if at == w.cur {
					w.due = append(w.due, ev)
				} else {
					w.insert(at, ev)
				}
			}
			w.recycle(slot)
		}
		return true
	}
	return false
}
