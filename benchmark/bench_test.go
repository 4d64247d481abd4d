package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"scalerpc/internal/sim"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their whys differ)", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, in code %v (must be in (0, 0.25])", d.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	if seen[failedFrac.Name] {
		t.Errorf("%s is always 0 and must stay out of BENCHMARK.json", failedFrac.Name)
	}
}

// TestSmoke runs every workload once with a 200 µs warm-up and window on
// two seeds: ops complete, none fail, and the seed changes the run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			small := *w
			small.Warmup, small.Window = 200*sim.Microsecond, 200*sim.Microsecond
			var fired [2]uint64
			for i, seed := range []uint64{1, 2} {
				r, err := measureRep(&small, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				if r.ops == 0 || r.attempted == 0 || r.total() != 0 {
					t.Errorf("seed %d: ops %d, attempted %d, failures %+v", seed, r.ops, r.attempted, r.failures)
				}
				if r.bytes == 0 {
					t.Errorf("seed %d: no payload bytes counted", seed)
				}
				fired[i] = r.Fired
			}
			if fired[0] == fired[1] {
				t.Errorf("seeds 1 and 2 fired the same %d events: the seed does not reach the generators", fired[0])
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, med, q3)
	}
	if s := spread([]float64{90, 100, 110, 100, 100}); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", s)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {10, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpanArithmetic(t *testing.T) {
	// Two ops on one connection inside the window; the third never reached
	// a handler, the fourth was delivered after the window, the fifth
	// accepted before it.
	c := &checkedConn{spans: []opSpan{
		{Seq: 0, Sim: [4]int64{100, 400, 900, 1000}},
		{Seq: 1, Sim: [4]int64{200, 1200, 1700, 2200}},
		{Seq: 2, Sim: [4]int64{300, 0, 0, 2500}},
		{Seq: 3, Sim: [4]int64{400, 500, 600, 9000}},
		{Seq: 4, Sim: [4]int64{10, 500, 600, 700}},
	}}
	s := summarizeSpans([]*checkedConn{c}, 50, 5000)
	if s.Ops != 2 {
		t.Fatalf("ops = %d, want 2", s.Ops)
	}
	if s.Request.Mean != 650 || s.Handler.Mean != 500 || s.Response.Mean != 300 {
		t.Errorf("stage means = %v %v %v, want 650 500 300", s.Request.Mean, s.Handler.Mean, s.Response.Mean)
	}
	// The stages of an op sum to its accept→deliver time: (900+2000)/2.
	if r := residualFrac(1450, s.Request.Mean, s.Handler.Mean, s.Response.Mean); r != 0 {
		t.Errorf("residual = %v, want 0", r)
	}
	if r := residualFrac(2000, 1000, 500); r != 0.25 {
		t.Errorf("residual = %v, want 0.25", r)
	}
	if got := selfTime(1000, 200, 300, 50); got != 450 {
		t.Errorf("selfTime = %v, want 450", got)
	}
	recs := spanRecords([]*checkedConn{c})
	if len(recs) != 16 { // four complete ops × (op + three stages)
		t.Fatalf("%d span records, want 16", len(recs))
	}
	for _, r := range recs[1:4] {
		if r.Parent != recs[0].ID || r.Op != recs[0].Op {
			t.Errorf("stage %+v is not a child of %+v", r, recs[0])
		}
	}
	if recs[1].SimEnd != recs[2].SimStart || recs[2].SimEnd != recs[3].SimStart || recs[3].SimEnd != recs[0].SimEnd {
		t.Errorf("stages do not tile the op: %+v", recs[:4])
	}
}

func TestProfileBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"scalerpc/internal/nic.(*NIC).processOut":                                  "nic",
		"scalerpc/internal/baseline/rawrpc.(*Server).serve":                        "rawrpc",
		"scalerpc/internal/sim.(*Queue[scalerpc/internal/scalerpc.legacyJob]).Pop": "sim",
		"scalerpc/internal/bench.runRPC.func1":                                     "other",
		"main.(*checkedConn).TrySend":                                              "other",
		"runtime.mallocgc":                                                         "",
		"hash/crc32.ieeeCLMUL":                                                     "",
	} {
		if got := pkgOfFunc(fn); got != want {
			t.Errorf("pkgOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
	for want, stack := range map[string][]string{
		"rpcwire": {"hash/crc32.ieeeCLMUL", "hash/crc32.ChecksumIEEE", "scalerpc/internal/rpcwire.Encode", "scalerpc/internal/scalerpc.(*Conn).TrySend"},
		"sim":     {"runtime.chanrecv", "scalerpc/internal/sim.(*Proc).block"},
		"runtime": {"runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"other":   {"os.(*File).Write"},
	} {
		if got := bucketOfStack(stack); got != want {
			t.Errorf("bucketOfStack(%v) = %q, want %q", stack, got, want)
		}
	}
	p := &cpuProfile{periodNs: 2_000_000, samples: []profSample{
		{stack: []string{"scalerpc/internal/nic.x"}, count: 3},
		{stack: []string{"runtime.gcDrain"}, count: 1, labels: map[string]string{labelKey: "poll"}},
	}}
	s := summarizeProfile(p)
	sum := 0.0
	for _, v := range s.PkgShare {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 || s.PkgShare["nic"] != 0.75 || s.regionNs(regionPoll) != 2_000_000 {
		t.Errorf("profile summary = %+v (shares sum %v)", s, sum)
	}
}

func TestCheckVerdicts(t *testing.T) {
	tight := func(v float64) metricValue { return metricValue{Value: v, Samples: []float64{v, v, v, v}} }
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{0.7 * v, 0.8 * v, v, 1.2 * v, 1.3 * v}}
	}
	// Synthetic definitions, so the cases do not move with the real bounds.
	speed := metricDef{Name: "host_ops_per_s", Better: "higher", Bound: 0.10}
	tail := metricDef{Name: "sim_p99_us", Better: "lower", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		def       metricDef
		base, cur metricValue
		want      string
	}{
		{speed, tight(1000), tight(1300), vImproved},
		{speed, tight(1000), tight(950), vWithin},
		{speed, tight(1000), tight(700), vRegressed},
		{speed, tight(1000), noisy(990), vUnresolved},
		{speed, noisy(1000), tight(700), vUnresolved},
		{tail, metricValue{Value: 100}, metricValue{Value: 120}, vRegressed},
		{tail, metricValue{Value: 100}, metricValue{Value: 100}, vWithin},
		{tail, metricValue{Value: 100}, metricValue{Value: 80}, vImproved},
		// Twice as slow, but by less than the absolute floor.
		{setup, tight(0.02), tight(0.04), vWithin},
		{setup, tight(1.0), tight(1.5), vRegressed},
	} {
		if _, got := judge(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.base.Value, c.cur.Value, got, c.want)
		}
	}
	if _, got := judge(failedFrac, metricValue{}, metricValue{Value: 1e-6}); got != vRegressed {
		t.Errorf("failed_frac 0 → 1e-6: %s, want %s", got, vRegressed)
	}
	if _, got := judge(failedFrac, metricValue{}, metricValue{}); got != vWithin {
		t.Errorf("failed_frac 0 → 0: %s, want %s", got, vWithin)
	}
}
