package sim_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"scalerpc/internal/chaos"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// schedFingerprint captures everything a scheduler swap could plausibly
// perturb: the full JSON artifact of each run (per-op latencies, violation
// lists, telemetry counters), the total number of dispatched events, and
// the final virtual clock. All fields are virtual-time deterministic —
// chaos.Result and loadgen.Report contain no wall-clock measurements — so
// byte equality across schedulers is a sound assertion.
type schedFingerprint struct {
	chaosJSON [][]byte
	macroJSON []byte
	events    uint64
	virtualNs sim.Time
	// kernelOrder is the dispatch order of a scenario that interleaves all
	// three event forms — At closures, closure-free AtArg and process
	// wake-ups — at colliding instants (see eventFormOrder).
	kernelOrder []int
}

// openLoopMacro runs the macro scenario — 256 open-loop Poisson clients
// offering 2 Mops/s of 32 B echoes to one ScaleRPC server over 8 client
// hosts, the ledger's echo_open_256 shape — for 200 µs of warmup and 1 ms
// of measurement on seed 7. It returns the loadgen report, the number of
// dispatched events and the final virtual clock.
func openLoopMacro() (*loadgen.Report, uint64, sim.Time) {
	const clients = 256
	const clientHosts = 8
	cfg := cluster.Default(1 + clientHosts)
	cfg.Seed = 7
	c := cluster.New(cfg)
	defer c.Close()
	s := scalerpc.NewServer(c.Hosts[0], scalerpc.DefaultServerConfig())
	s.Register(1, func(t *host.Thread, _ uint16, req, out []byte) int {
		t.Work(400)
		return copy(out, req)
	})
	s.Start()

	w := loadgen.Workload{
		Name:        "macro",
		OfferedRate: 2_000_000,
		Arrival:     loadgen.ArrivalPoisson,
		Warmup:      200 * sim.Microsecond,
		Duration:    1 * sim.Millisecond,
		Seed:        7,
		Handler:     1,
		Tenants:     []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32)}},
	}
	cl := make([]loadgen.Client, clients)
	for i := range cl {
		ch := c.Hosts[1+i%clientHosts]
		sig := sim.NewSignal(c.Env)
		cl[i] = loadgen.Client{Host: ch, Conn: s.Connect(ch, sig), Sig: sig}
	}
	runner := loadgen.NewRunner(w, cl, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)
	end := c.Env.RunUntil(runner.DrainDeadline() + 100*sim.Microsecond)
	return runner.Report(), c.Env.Fired(), end
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
		at := sim.Duration((i * 37) % 50 * 100) // many ties across 50 instants
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

// TestSchedulerEquivalence pins that the 4-ary event queue and the reference
// binary heap produce byte-identical simulations: same (at, seq) dispatch
// order, same event counts, same artifacts. It runs every chaos fault class,
// the open-loop macro scenario and eventFormOrder under each scheduler and
// compares fingerprints.
func TestSchedulerEquivalence(t *testing.T) {
	run := func(name string) schedFingerprint {
		var fp schedFingerprint
		for _, class := range chaos.Classes() {
			res, err := chaos.Run(chaos.Config{Class: class, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, class, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fp.chaosJSON = append(fp.chaosJSON, b)
		}
		rep, events, end := openLoopMacro()
		fp.macroJSON = rep.JSON()
		fp.events = events
		fp.virtualNs = end
		fp.kernelOrder = eventFormOrder()
		return fp
	}

	heap := func() schedFingerprint {
		defer sim.UseHeapScheduler()()
		return run("heap")
	}()
	queue := run("queue")

	for i, class := range chaos.Classes() {
		if !bytes.Equal(heap.chaosJSON[i], queue.chaosJSON[i]) {
			t.Errorf("chaos class %q: result JSON differs between heap and queue schedulers\nheap:  %s\nqueue: %s",
				class, heap.chaosJSON[i], queue.chaosJSON[i])
		}
	}
	if !bytes.Equal(heap.macroJSON, queue.macroJSON) {
		t.Errorf("loadgen macro report differs between heap and queue schedulers\nheap:  %s\nqueue: %s",
			heap.macroJSON, queue.macroJSON)
	}
	if heap.events != queue.events {
		t.Errorf("macro dispatched events: heap=%d queue=%d — schedulers disagree on event count", heap.events, queue.events)
	}
	if heap.virtualNs != queue.virtualNs {
		t.Errorf("macro final virtual clock: heap=%d queue=%d", heap.virtualNs, queue.virtualNs)
	}
	if len(heap.kernelOrder) < 400 || !slices.Equal(heap.kernelOrder, queue.kernelOrder) {
		t.Errorf("At/AtArg/process dispatch order differs between heap and queue schedulers\nheap:  %v\nqueue: %v",
			heap.kernelOrder, queue.kernelOrder)
	}
}
