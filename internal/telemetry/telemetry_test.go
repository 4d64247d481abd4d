package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scalerpc/internal/sim"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("nic0")
	c := sc.Counter("qpc.miss")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if v, ok := r.Value("nic0.qpc.miss"); !ok || v != 5 {
		t.Fatalf("registry value = %v, %v", v, ok)
	}

	g := sc.Gauge("priority")
	g.Set(1.5)
	g.Add(0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g", g.Value())
	}

	h := sc.Histogram("lat")
	h.Record(0)
	h.Record(1)
	h.Record(3)
	h.Record(1 << 40)
	if h.Count() != 4 || h.Sum() != 4+1<<40 {
		t.Fatalf("hist count=%d sum=%g", h.Count(), h.Sum())
	}
	if b := h.BitLenBuckets(); b[0] != 0 || b[1] != 2 || b[2] != 1 || b[41] != 1 {
		t.Fatalf("buckets = %v", b[:42])
	}
}

func TestCounterVarObservesStructField(t *testing.T) {
	type statsStruct struct{ Hits uint64 }
	var st statsStruct
	r := NewRegistry()
	r.Scope("llc0").CounterVar("hit", &st.Hits)
	st.Hits = 7
	if v, _ := r.Value("llc0.hit"); v != 7 {
		t.Fatalf("value through pointer = %g, want 7", v)
	}
	// Zero-value struct assignment (the component Reset idiom) must be
	// visible through the registered pointer.
	st = statsStruct{}
	if v, _ := r.Value("llc0.hit"); v != 0 {
		t.Fatalf("value after reset = %g, want 0", v)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate metric name")
		}
	}()
	r := NewRegistry()
	r.Scope("a").Counter("x")
	r.Scope("a").Counter("x")
}

func TestUniqueScopeSuffixesRepeats(t *testing.T) {
	r := NewRegistry()
	a := r.UniqueScope("scalerpc")
	b := r.UniqueScope("scalerpc")
	if a.Name() != "scalerpc" || b.Name() != "scalerpc#2" {
		t.Fatalf("scopes = %q, %q", a.Name(), b.Name())
	}
	a.Counter("server.switches")
	b.Counter("server.switches") // must not collide
}

func TestDetachedScopeIsFreeAndSafe(t *testing.T) {
	var sc Scope // zero value: no registry
	c := sc.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter does not count")
	}
	var v uint64
	sc.CounterVar("y", &v) // no-op, no panic
	tr := sc.Trace()
	if tr == nil || tr.Enabled {
		t.Fatal("detached trace must be a disabled sink")
	}
	tr.Emit(0, "nope")
	if len(tr.Events) != 0 {
		t.Fatal("disabled trace recorded an event")
	}
}

func TestTraceCapAndReset(t *testing.T) {
	tr := &Trace{Enabled: true, Cap: 2}
	tr.Emit(1, "a", A("k", 1))
	tr.Emit(2, "b")
	tr.Emit(3, "c")
	if len(tr.Events) != 2 || tr.Dropped != 1 {
		t.Fatalf("events=%d dropped=%d", len(tr.Events), tr.Dropped)
	}
	tr.Reset()
	if len(tr.Events) != 0 || tr.Dropped != 0 || !tr.Enabled {
		t.Fatal("reset broke trace state")
	}
}

func TestSamplerRecordsSeries(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	c := r.Scope("nic0").Counter("out.wqes")
	r.Scope("other").Counter("ignored")
	s := r.Sample(env, 100, 1000, "nic0.*")

	env.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			c.Add(2)
			p.Sleep(100)
		}
	})
	env.RunUntil(1000)

	list := s.SeriesList()
	if len(list) != 1 || list[0].Metric != "nic0.out.wqes" {
		t.Fatalf("series = %+v", list)
	}
	se := list[0]
	if len(se.T) != 10 {
		t.Fatalf("ticks = %d, want 10", len(se.T))
	}
	if se.T[0] != 100 || se.V[0] != 2 {
		// The t=100 tick was scheduled at Sample() time, before the
		// process's t=100 wake-up, so same-instant ordering lets the
		// sampler observe only the t=0 increment.
		t.Fatalf("first sample = (%d, %g)", se.T[0], se.V[0])
	}
	if se.V[len(se.V)-1] != 20 {
		t.Fatalf("last sample = %g, want 20", se.V[len(se.V)-1])
	}
}

func TestSamplerStopsAtHorizon(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	r.Scope("a").Counter("x")
	s := r.Sample(env, 100, 250, "*")
	// Run to exhaustion: the sampler must not keep the env alive forever.
	env.Run()
	if n := len(s.SeriesList()[0].T); n != 2 {
		t.Fatalf("samples = %d, want 2 (t=100, t=200)", n)
	}
}

func TestJSONDumpDeterministicAndComplete(t *testing.T) {
	build := func() *Registry {
		env := sim.NewEnv()
		defer env.Close()
		r := NewRegistry()
		r.EnableTrace()
		c := r.Scope("nic0").Counter("out.wqes")
		g := r.Scope("scalerpc.client", "17").Gauge("priority")
		h := r.Scope("scalerpc.server").Histogram("handler_ns")
		r.Sample(env, 50, 200, "nic0.*")
		env.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Record(int64(100 * i))
				r.Trace().Emit(p.Now(), "tick", A("i", int64(i)))
				p.Sleep(50)
			}
		})
		env.RunUntil(200)
		return r
	}
	j1 := build().JSON()
	j2 := build().JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("two identical runs produced different JSON")
	}
	var d map[string]any
	if err := json.Unmarshal(j1, &d); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	s := string(j1)
	for _, want := range []string{"nic0.out.wqes", "scalerpc.client.17.priority", "scalerpc.server.handler_ns", `"series"`, `"trace"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump missing %q:\n%s", want, s)
		}
	}
}
