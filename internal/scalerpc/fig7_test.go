package scalerpc

import (
	"testing"

	"scalerpc/internal/rpccore"
)

// The client's Figure 7 decisions (fig7's methods) driven edge by edge, with
// no cluster: every transition of IDLE/WARMUP/PROCESS, the late-swept
// response rule, the round rules and a pinned client.

var (
	fromIdle    = fig7{}.idle()
	fromWarmup  = fig7{state: StateWarmup, zone: -1, poolIdx: -1, round: 4, roundHigh: 3}
	fromProcess = fig7{state: StateProcess, zone: 7, poolIdx: 1, round: 4, roundHigh: 3}
)

// zoneWord is what a response header's ClientID field carries for zone z of
// pool p.
func zoneWord(z, p int) uint16 { return uint16(z) | uint16(p)*poolBit }

// TestFig7Transitions drives every Figure 7 edge through the pure decisions.
func TestFig7Transitions(t *testing.T) {
	type step func(fig7) (fig7, bool)
	send := func(again bool) step { return func(f fig7) (fig7, bool) { return f.send(again) } }
	released := func(w uint16) step { return func(f fig7) (fig7, bool) { return f.released(w), false } }
	switches := func(w uint16, flag bool) step {
		return func(f fig7) (fig7, bool) { return f, f.switches(w, flag) }
	}
	switched := func(outstanding bool) step {
		return func(f fig7) (fig7, bool) { return f.switched(outstanding), false }
	}
	stage := func(b int) step { return func(f fig7) (fig7, bool) { return f.stage(b), false } }
	with := func(f fig7, edit func(*fig7)) fig7 { edit(&f); return f }

	for _, tc := range []struct {
		name string
		from fig7
		do   step
		want fig7
		flag bool // send: the request goes out directly; switches: the client leaves its state
	}{
		// IDLE → WARMUP on a send: a new round, the entry to flush.
		{"send in IDLE opens a round", fromIdle, send(false),
			fig7{state: StateWarmup, zone: -1, poolIdx: -1, round: 1, entryDirty: true}, false},
		{"send in WARMUP stages", fromWarmup, send(false), fromWarmup, false},
		{"send in PROCESS goes direct", fromProcess, send(false), fromProcess, true},

		// WARMUP → PROCESS on a response that carries a zone.
		{"zone word promotes WARMUP", fromWarmup, released(zoneWord(5, 1)),
			with(fromWarmup, func(f *fig7) { f.state, f.zone, f.poolIdx = StateProcess, 5, 1 }), false},
		{"zone word in pool 0", fromWarmup, released(zoneWord(2, 0)),
			with(fromWarmup, func(f *fig7) { f.state, f.zone, f.poolIdx = StateProcess, 2, 0 }), false},
		{"zone word moves PROCESS", fromProcess, released(zoneWord(3, 0)),
			with(fromProcess, func(f *fig7) { f.zone, f.poolIdx = 3, 0 }), false},
		{"zone word leaves IDLE idle", fromIdle, released(zoneWord(3, 1)),
			with(fromIdle, func(f *fig7) { f.zone, f.poolIdx = 3, 1 }), false},
		{"late answer or cancel in WARMUP re-advertises", fromWarmup, released(zoneNone),
			with(fromWarmup, func(f *fig7) { f.entryDirty = true }), false},
		{"no zone word keeps PROCESS", fromProcess, released(zoneNone), fromProcess, false},

		// PROCESS or WARMUP → IDLE on a switch flag carried with a zone (the
		// drain) or on the control block.
		{"drain flag switches PROCESS", fromProcess, switches(zoneWord(7, 1), true), fromProcess, true},
		{"drain flag switches WARMUP", fromWarmup, switches(zoneWord(7, 0), true), fromWarmup, true},
		{"no flag, no switch", fromProcess, switches(zoneWord(7, 1), false), fromProcess, false},
		{"switched with nothing outstanding idles", fromProcess, switched(false), with(fromIdle, func(f *fig7) {
			f.round, f.roundHigh = 4, 3
		}), false},
		{"switched with requests outstanding re-offers them", fromWarmup, switched(true),
			fig7{state: StateWarmup, zone: -1, poolIdx: -1, round: 5, entryDirty: true}, false},

		// A late-swept response carries no zone word: its flag is acted on
		// only by a client still in PROCESS (its notification was lost).
		{"late flag switches PROCESS", fromProcess, switches(zoneNone, true), fromProcess, true},
		{"late flag ignored in WARMUP", fromWarmup, switches(zoneNone, true), fromWarmup, false},
		{"late flag ignored in IDLE", fromIdle, switches(zoneNone, true), fromIdle, false},
		{"late flag with pool bit is still no zone", fromWarmup, switches(zoneNone|poolBit, true), fromWarmup, false},

		// A block staged below roundHigh may have been fetched this round.
		{"stage below roundHigh bumps the round", fromWarmup, stage(1),
			with(fromWarmup, func(f *fig7) { f.round, f.roundHigh, f.entryDirty = 5, 0, true }), false},
		{"stage at roundHigh keeps the round", fromWarmup, stage(3),
			with(fromWarmup, func(f *fig7) { f.entryDirty = true }), false},
		{"stage above roundHigh keeps the round", fromWarmup, stage(6),
			with(fromWarmup, func(f *fig7) { f.entryDirty = true }), false},

		// Resend from each state.
		{"resend in PROCESS goes direct", fromProcess, send(true), fromProcess, true},
		{"resend in IDLE opens a round", fromIdle, send(true),
			fig7{state: StateWarmup, zone: -1, poolIdx: -1, round: 1, entryDirty: true}, false},
		{"resend in WARMUP moves to a new round", fromWarmup, send(true),
			with(fromWarmup, func(f *fig7) { f.round, f.entryDirty = 5, true }), false},
	} {
		got, flag := tc.do(tc.from)
		if got != tc.want || flag != tc.flag {
			t.Errorf("%s: got %+v, %v; want %+v, %v", tc.name, got, flag, tc.want, tc.flag)
		}
	}
}

// TestFig7Flush: the entry goes out only in WARMUP and only when it
// changed, advertising one past the highest busy slot and raising
// roundHigh to it; a later stage below that count opens a new round.
func TestFig7Flush(t *testing.T) {
	win := rpccore.NewWindow(8)
	win.Take(0, 1, 40)
	win.Take(4, 2, 40)
	for _, from := range []fig7{fromIdle, fromProcess, fromWarmup} {
		if _, _, ok := from.flush(&win); ok {
			t.Errorf("%v with a clean entry flushed", from.state)
		}
	}
	next, count, ok := dirty(fromWarmup).flush(&win)
	if !ok || count != 5 || next.roundHigh != 5 || next.entryDirty || next.round != fromWarmup.round {
		t.Fatalf("dirty WARMUP: flushed %v, count %d, state %+v; want a flush of 5 raising roundHigh to 5", ok, count, next)
	}
	if again := next.stage(2); again.round != next.round+1 || again.roundHigh != 0 {
		t.Errorf("staging block 2 after a flush of 5: round %d, roundHigh %d; want a new round", again.round, again.roundHigh)
	}
	if _, _, ok := dirty(fromProcess).flush(&win); ok {
		t.Error("dirty PROCESS flushed an entry")
	}
}

// dirty returns f with its entry marked changed.
func dirty(f fig7) fig7 {
	f.entryDirty = true
	return f
}

// TestFig7Pinned: a pinned client is in PROCESS on its reserved zone in
// pool 0 from admission on, sends and resends directly, and its responses
// (which never carry the switch flag, and whose zone word has no pool bit)
// leave it there.
func TestFig7Pinned(t *testing.T) {
	f := fromIdle.pin(42)
	if f.state != StateProcess || f.zone != 42 || f.poolIdx != 0 {
		t.Fatalf("pinned: %+v, want PROCESS on zone 42 of pool 0", f)
	}
	for _, again := range []bool{false, true} {
		if next, direct := f.send(again); !direct || next != f {
			t.Errorf("pinned send(again %v): direct %v, %+v", again, direct, next)
		}
	}
	w := zoneWord(42, 0)
	if f.switches(w, false) || f.released(w) != f {
		t.Errorf("a pinned client's response moved it: switches %v, released %+v", f.switches(w, false), f.released(w))
	}
}

// TestAllocBudgetFig7Transitions: the decisions take and return values and
// allocate nothing.
func TestAllocBudgetFig7Transitions(t *testing.T) {
	win := rpccore.NewWindow(16)
	win.Take(3, 1, 64)
	var sink fig7
	allocs := testing.AllocsPerRun(1000, func() {
		f, _ := fromIdle.send(false)
		f = f.stage(0)
		f, _, _ = f.flush(&win)
		if f.switches(zoneNone, true) {
			return
		}
		f = f.released(zoneWord(1, 1)).switched(true).released(zoneNone).idle().pin(2)
		sink, _ = f.send(true)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per pass of the transitions, want 0", allocs)
	}
	_ = sink
}
