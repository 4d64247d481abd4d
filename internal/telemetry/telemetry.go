// Package telemetry is the unified instrumentation layer: one registry of
// named counters, gauges and latency histograms (stats.Histogram, dumped in
// its bit-length buckets) that every simulated component (NIC, PCIe bus,
// LLC, host CPU accounting, the RPC transports) registers into under a
// hierarchical component scope — `nic0.qpc.miss`, `pcie.bus0.rdcur`,
// `llc0.cpu.read.miss`, `scalerpc.server.switches`,
// `scalerpc.client.17.retries`.
//
// Design constraints, in order:
//
//   - The hot path must stay hot. Metrics are plain uint64/float64 cells
//     behind per-component handles: a component either asks the scope for a
//     registry-owned *Counter and increments through the handle, or
//     registers a field of its existing stats struct with CounterVar so the
//     struct stays the one true storage and the registry merely observes
//     it. The simulator is single-threaded virtual time, so there are no
//     atomics anywhere.
//
//   - Observation is pull-based. Snapshot structs (nic.Stats,
//     pcie.Counters, cachesim.Stats, scalerpc.Stats) remain the typed views
//     the figure code consumes; the registry adds a uniform dump (JSON),
//     virtual-time interval sampling (Sampler), and structured trace
//     events (Trace) on top, without a second bookkeeping path.
//
//   - Output is deterministic. Dumps are sorted by metric name, series
//     follow registration order, and trace events follow emission order,
//     so two runs with the same (Config, seed) produce byte-identical
//     metrics JSON.
//
// The zero Scope is valid and detached: handles it returns still work as
// plain cells, they are just not registered anywhere. Components can
// therefore be constructed without a registry (unit tests) at zero cost.
package telemetry

import (
	"fmt"
	"strings"

	"scalerpc/internal/stats"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Kind discriminates metric types in the registry.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// entry is one registered metric: exactly one of c, g, h is set.
type entry struct {
	kind Kind
	c    *uint64
	g    *float64
	h    *stats.Histogram
}

// value returns the entry's current value as a float64 (histograms report
// their observation count).
func (e *entry) value() float64 {
	switch e.kind {
	case KindCounter:
		return float64(*e.c)
	case KindGauge:
		return *e.g
	case KindHistogram:
		return float64(e.h.Count())
	}
	return 0
}

// Registry holds every registered metric of one simulation. It is not safe
// for concurrent use; in the simulator all registration and observation
// happens on the single scheduler goroutine.
type Registry struct {
	entries  map[string]*entry
	order    []string // registration order, for deterministic iteration
	scopeUse map[string]int
	samplers []*Sampler
	trace    Trace
	aux      map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:  make(map[string]*entry),
		scopeUse: make(map[string]int),
	}
}

// Aux returns the registry-attached singleton under key, calling make on
// first use. Components that must share one stats block per registry (e.g.
// the RPC reliability counters, incremented by every transport on a
// cluster) anchor it here instead of in a package global, which would leak
// across simulations.
func (r *Registry) Aux(key string, make func() interface{}) interface{} {
	if r.aux == nil {
		r.aux = map[string]interface{}{}
	}
	v, ok := r.aux[key]
	if !ok {
		v = make()
		r.aux[key] = v
	}
	return v
}

// Trace returns the registry's trace sink (disabled until EnableTrace).
func (r *Registry) Trace() *Trace { return &r.trace }

// EnableTrace turns on structured trace-event collection.
func (r *Registry) EnableTrace() { r.trace.Enabled = true }

// register installs e under name, panicking on duplicates: metric names
// identify exactly one cell, and silent merging would corrupt per-component
// snapshots. Use UniqueScope for components that may be instantiated more
// than once per registry.
func (r *Registry) register(name string, e *entry) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.entries[name] = e
	r.order = append(r.order, name)
}

// Value returns the current value of a registered metric and whether it
// exists.
func (r *Registry) Value(name string) (float64, bool) {
	e, ok := r.entries[name]
	if !ok {
		return 0, false
	}
	return e.value(), true
}

// Scope returns a child scope of the registry root. Multiple path segments
// are joined with dots: r.Scope("pcie", "bus0") names "pcie.bus0.*".
func (r *Registry) Scope(parts ...string) Scope {
	return Scope{reg: r, prefix: strings.Join(parts, ".")}
}

// UniqueScope returns a scope with the given name, or name#2, name#3, …
// when earlier instances already claimed it — how components that can be
// instantiated several times per cluster (RPC servers) stay collision-free
// while the common single-instance case keeps the clean name.
func (r *Registry) UniqueScope(name string) Scope {
	r.scopeUse[name]++
	if n := r.scopeUse[name]; n > 1 {
		name = fmt.Sprintf("%s#%d", name, n)
	}
	return Scope{reg: r, prefix: name}
}

// Scope is a naming context inside a registry. The zero Scope is valid and
// detached: metric constructors return working cells that are simply not
// registered, and Trace() returns a shared disabled sink.
type Scope struct {
	reg    *Registry
	prefix string
}

// Registry returns the owning registry (nil for a detached scope).
func (s Scope) Registry() *Registry { return s.reg }

// Name returns the scope's full prefix.
func (s Scope) Name() string { return s.prefix }

// Scope returns a child scope.
func (s Scope) Scope(parts ...string) Scope {
	child := strings.Join(parts, ".")
	if s.prefix != "" && child != "" {
		child = s.prefix + "." + child
	} else if child == "" {
		child = s.prefix
	}
	return Scope{reg: s.reg, prefix: child}
}

func (s Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Counter creates and registers a registry-owned counter.
func (s Scope) Counter(name string) *Counter {
	c := &Counter{}
	if s.reg != nil {
		s.reg.register(s.full(name), &entry{kind: KindCounter, c: &c.v})
	}
	return c
}

// CounterVar registers an existing uint64 cell — typically a field of a
// component's stats struct — as a counter. The struct remains the storage;
// the registry observes it through the pointer.
func (s Scope) CounterVar(name string, v *uint64) {
	if s.reg != nil && v != nil {
		s.reg.register(s.full(name), &entry{kind: KindCounter, c: v})
	}
}

// Gauge creates and registers a registry-owned gauge.
func (s Scope) Gauge(name string) *Gauge {
	g := &Gauge{}
	if s.reg != nil {
		s.reg.register(s.full(name), &entry{kind: KindGauge, g: &g.v})
	}
	return g
}

// GaugeVar registers an existing float64 cell as a gauge.
func (s Scope) GaugeVar(name string, v *float64) {
	if s.reg != nil && v != nil {
		s.reg.register(s.full(name), &entry{kind: KindGauge, g: v})
	}
}

// Histogram creates and registers a latency histogram.
func (s Scope) Histogram(name string) *stats.Histogram {
	h := stats.NewHistogram()
	if s.reg != nil {
		s.reg.register(s.full(name), &entry{kind: KindHistogram, h: h})
	}
	return h
}

// noTrace is the shared disabled sink detached scopes hand out, so callers
// can always test `trace.Enabled` without a nil check.
var noTrace = &Trace{}

// Trace returns the registry's trace sink, or a shared disabled sink for a
// detached scope.
func (s Scope) Trace() *Trace {
	if s.reg == nil {
		return noTrace
	}
	return &s.reg.trace
}
