package tenant_test

import (
	"testing"

	"scalerpc/internal/loadgen"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
	"scalerpc/internal/tenant"
)

// ladderRig builds a manager with one protected latency tenant and one
// bulk target, plus a synthetic cumulative telemetry source the test
// feeds window by window.
type ladderRig struct {
	m    *tenant.Manager
	c    *tenant.Controller
	lat  uint16
	bulk uint16

	hist      *stats.Histogram
	offered   uint64
	completed uint64
	now       sim.Time
}

func newLadderRig(t *testing.T, cfg tenant.ControllerConfig) *ladderRig {
	t.Helper()
	r := &ladderRig{hist: stats.NewHistogram()}
	r.m = tenant.NewManager(telemetry.Scope{})
	r.lat = r.m.Register(tenant.Spec{Name: "lat", Quota: tenant.Quota{Weight: 2, Class: tenant.ClassLatency}})
	r.bulk = r.m.Register(tenant.Spec{Name: "bulk",
		Quota: tenant.Quota{MaxConns: 64, Weight: 1, Class: tenant.ClassBulk}})
	r.c = r.m.NewController(r.lat, loadgen.P99(50), func() (*stats.Histogram, uint64, uint64) {
		return r.hist, r.offered, r.completed
	}, cfg)
	return r
}

// window appends n samples at latUs microseconds to the cumulative
// telemetry and steps the controller once.
func (r *ladderRig) window(n int, latUs int64) {
	for i := 0; i < n; i++ {
		r.hist.Record(latUs * 1000)
	}
	r.offered += uint64(n)
	r.completed += uint64(n)
	r.now += 200_000
	r.c.Step(r.now)
}

// TestControllerEscalationLadder walks the full ladder up under sustained
// violation and back down under sustained relief, checking every lever at
// every level.
func TestControllerEscalationLadder(t *testing.T) {
	cfg := tenant.ControllerConfig{Interval: 200 * sim.Microsecond, TripWindows: 2, ClearWindows: 3, MinSamples: 10}
	r := newLadderRig(t, cfg)

	check := func(level int, weight float64, class tenant.Class, shed bool) {
		t.Helper()
		if r.c.Level() != level {
			t.Fatalf("level = %d, want %d", r.c.Level(), level)
		}
		if w := r.m.SliceWeight(r.bulk); w != weight {
			t.Fatalf("level %d: bulk weight = %v, want %v", level, w, weight)
		}
		if c := r.m.GroupClass(r.bulk); c != int(class) {
			t.Fatalf("level %d: bulk class = %d, want %d", level, c, class)
		}
		d, _ := r.m.Decide(r.bulk, false)
		if shed && d != tenant.Reject {
			t.Fatalf("level %d: bulk admission = %v, want reject (shed)", level, d)
		}
		if !shed && d != tenant.Admit {
			t.Fatalf("level %d: bulk admission = %v, want admit", level, d)
		}
	}

	// Healthy windows: hands off.
	r.window(100, 10)
	r.window(100, 10)
	check(0, 1, tenant.ClassBulk, false)

	// One bad window is not enough (hysteresis)...
	r.window(100, 400)
	check(0, 1, tenant.ClassBulk, false)
	// ...two consecutive trip level 1: weights shrink.
	r.window(100, 400)
	check(1, 0.25, tenant.ClassBulk, false)

	// Sustained violation climbs to 2 (demotion) then 3 (shedding).
	r.window(100, 400)
	r.window(100, 400)
	check(2, 0.25, tenant.ClassBestEffort, false)
	r.window(100, 400)
	r.window(100, 400)
	check(3, 0.25, tenant.ClassBestEffort, true)
	// The ladder tops out.
	r.window(100, 400)
	r.window(100, 400)
	check(3, 0.25, tenant.ClassBestEffort, true)

	// Relief: three good windows per step back down, full restoration at 0.
	r.window(100, 10)
	r.window(100, 10)
	check(3, 0.25, tenant.ClassBestEffort, true)
	r.window(100, 10)
	check(2, 0.25, tenant.ClassBestEffort, false)
	r.window(100, 10)
	r.window(100, 10)
	r.window(100, 10)
	check(1, 0.25, tenant.ClassBulk, false)
	r.window(100, 10)
	r.window(100, 10)
	r.window(100, 10)
	check(0, 1, tenant.ClassBulk, false)

	// The action log recorded every move in order.
	wantLevels := []int{1, 2, 3, 2, 1, 0}
	if len(r.c.Actions) != len(wantLevels) {
		t.Fatalf("actions = %d, want %d: %+v", len(r.c.Actions), len(wantLevels), r.c.Actions)
	}
	for i, a := range r.c.Actions {
		if a.Level != wantLevels[i] {
			t.Fatalf("action %d level = %d, want %d", i, a.Level, wantLevels[i])
		}
		if i > 0 && a.At <= r.c.Actions[i-1].At {
			t.Fatalf("action %d not after its predecessor", i)
		}
	}
}

// TestControllerHysteresisAndMinSamples checks that alternating windows
// never trip the ladder and that thin windows are ignored entirely.
func TestControllerHysteresisAndMinSamples(t *testing.T) {
	cfg := tenant.ControllerConfig{Interval: 200 * sim.Microsecond, TripWindows: 2, ClearWindows: 2, MinSamples: 50}
	r := newLadderRig(t, cfg)

	// Alternating good/bad: the fail streak never reaches 2.
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			r.window(100, 400)
		} else {
			r.window(100, 10)
		}
	}
	if r.c.Level() != 0 {
		t.Fatalf("alternating windows tripped the ladder to %d", r.c.Level())
	}
	if r.c.Violations == 0 {
		t.Fatal("violating windows not counted")
	}

	// Thin windows (below MinSamples) are no evidence: two bad-but-thin
	// windows between two bad ones must not break the streak — but must
	// not advance it either.
	evaluated := r.c.Windows
	r.window(10, 400) // thin: skipped
	if r.c.Windows != evaluated {
		t.Fatal("thin window was evaluated")
	}
	r.window(100, 400)
	r.window(100, 400)
	if r.c.Level() != 1 {
		t.Fatalf("two full bad windows after thin ones: level = %d, want 1", r.c.Level())
	}
}

// TestControllerTransientViolationDetectedThenClears is the windowed-SLO
// satellite end to end: a transient burst of bad latency inside an
// otherwise healthy run is caught by the sliding window (the cumulative
// histogram would dilute it away) and the controller recovers once the
// burst passes.
func TestControllerTransientViolationDetectedThenClears(t *testing.T) {
	cfg := tenant.ControllerConfig{Interval: 200 * sim.Microsecond, TripWindows: 1, ClearWindows: 2, MinSamples: 10}
	r := newLadderRig(t, cfg)

	// A long healthy prefix.
	for i := 0; i < 30; i++ {
		r.window(1000, 10)
	}
	if r.c.Level() != 0 || r.c.Violations != 0 {
		t.Fatalf("healthy prefix: level %d, violations %d", r.c.Level(), r.c.Violations)
	}

	// The transient: ~0.5% of cumulative traffic, but 100% of its window.
	r.window(150, 400)
	if r.c.Level() != 1 {
		t.Fatalf("transient violation missed: level = %d, want 1", r.c.Level())
	}
	// The cumulative histogram would have passed: p99 over all samples is
	// still healthy, so only the windowed view can see the burst.
	if pass, _ := (loadgen.P99(50)).Evaluate(r.hist, r.offered, r.completed); !pass {
		t.Fatal("cumulative SLO also failed — transient not transient enough for the test's premise")
	}

	// Recovery clears it.
	r.window(1000, 10)
	r.window(1000, 10)
	if r.c.Level() != 0 {
		t.Fatalf("controller stuck at level %d after recovery", r.c.Level())
	}
	if r.c.Violations != 1 {
		t.Fatalf("violations = %d, want exactly 1", r.c.Violations)
	}
}
