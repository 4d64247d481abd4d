package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"scalerpc/internal/chaos"
	"scalerpc/internal/sim"
)

// schedFingerprint captures everything a scheduler swap could plausibly
// perturb: the full JSON artifact of each run (per-op latencies, violation
// lists, telemetry counters), the total number of dispatched events, and
// the final virtual clock. All fields are virtual-time deterministic —
// chaos.Result and loadgen.Report contain no wall-clock measurements — so
// byte equality across schedulers is a sound assertion.
type schedFingerprint struct {
	name      string
	chaosJSON [][]byte
	macroJSON []byte
	events    uint64
	virtualNs int64
	// kernelOrder is the dispatch order of a scenario that interleaves all
	// three event forms — At closures, closure-free AtArg and process
	// wake-ups — at colliding instants (see eventFormOrder).
	kernelOrder []int
}

// eventFormOrder schedules At, AtArg and process events over a handful of
// shared instants, some of them chained from inside callbacks, and returns
// the order they fired in. AtArg must take its place in (at, seq) order
// exactly as an At call would, under either scheduler.
func eventFormOrder() []int {
	env := sim.NewEnv()
	defer env.Close()
	var order []int
	var note func(any)
	note = func(arg any) {
		id := arg.(*int)
		order = append(order, *id)
		if *id%7 == 0 && *id < 400 {
			next := *id + 1000
			env.AtArg(sim.Duration(*id%3), note, &next) // same instant, +1, +2
		}
	}
	for i := 0; i < 300; i++ {
		i := i
		at := sim.Duration((i * 37) % 50 * 100) // many ties, spanning wheel slots
		switch i % 3 {
		case 0:
			env.At(at, func() { order = append(order, i) })
		case 1:
			env.AtArg(at, note, &i)
		default:
			env.SpawnAt(at, "p", func(p *sim.Proc) {
				order = append(order, i)
				p.Sleep(sim.Duration(i % 5))
				order = append(order, -i)
			})
		}
	}
	env.Run()
	return order
}

// TestSchedulerEquivalence pins that the hierarchical timing wheel and the
// binary-heap scheduler produce byte-identical simulations. The wheel must
// be a pure performance substitution: same (at, seq) dispatch order, same
// event counts, same artifacts. It runs every chaos fault class plus the
// loadgen macro scenario under each scheduler and compares fingerprints.
func TestSchedulerEquivalence(t *testing.T) {
	run := func(sched string) schedFingerprint {
		prev := sim.SetDefaultScheduler(sched)
		defer sim.SetDefaultScheduler(prev)
		fp := schedFingerprint{name: sched}

		for _, class := range chaos.Classes() {
			res, err := chaos.Run(chaos.Config{Class: class, Seed: 5, Clients: 4, Calls: 20})
			if err != nil {
				t.Fatalf("%s/%s: %v", sched, class, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fp.chaosJSON = append(fp.chaosJSON, b)
		}

		m, rep := runSimSpeedMacroOnce(Options{Warmup: 200 * sim.Microsecond, Duration: 1 * sim.Millisecond, Seed: 7})
		fp.macroJSON = rep.JSON()
		fp.events = m.Events
		fp.virtualNs = m.VirtualNs
		fp.kernelOrder = eventFormOrder()
		return fp
	}

	heap := run("heap")
	wheel := run("wheel")

	for i, class := range chaos.Classes() {
		if !bytes.Equal(heap.chaosJSON[i], wheel.chaosJSON[i]) {
			t.Errorf("chaos class %q: result JSON differs between heap and wheel schedulers\nheap:  %s\nwheel: %s",
				class, heap.chaosJSON[i], wheel.chaosJSON[i])
		}
	}
	if !bytes.Equal(heap.macroJSON, wheel.macroJSON) {
		t.Errorf("loadgen macro report differs between heap and wheel schedulers\nheap:  %s\nwheel: %s",
			heap.macroJSON, wheel.macroJSON)
	}
	if heap.events != wheel.events {
		t.Errorf("macro dispatched events: heap=%d wheel=%d — schedulers disagree on event count", heap.events, wheel.events)
	}
	if heap.virtualNs != wheel.virtualNs {
		t.Errorf("macro final virtual clock: heap=%d wheel=%d", heap.virtualNs, wheel.virtualNs)
	}
	if len(heap.kernelOrder) < 400 || !slices.Equal(heap.kernelOrder, wheel.kernelOrder) {
		t.Errorf("At/AtArg/process dispatch order differs between heap and wheel schedulers\nheap:  %v\nwheel: %v",
			heap.kernelOrder, wheel.kernelOrder)
	}
}
