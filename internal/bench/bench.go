// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation, each rebuilding the corresponding
// workload on a simulated cluster and emitting the same rows/series the
// paper reports. EXPERIMENTS.md records how the measured shapes compare.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"scalerpc/internal/faults"
	"scalerpc/internal/sim"
)

// Options tune experiment cost. Durations are virtual time; client counts
// and cache-sensitive parameters are never scaled (the shapes depend on
// them).
type Options struct {
	// Warmup is excluded from measurement.
	Warmup sim.Duration
	// Duration is the measurement window per data point.
	Duration sim.Duration
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks sweeps (fewer points, smaller preloads) for CI and
	// `go test -bench`. The full sweeps reproduce the paper's axes.
	Quick bool
	// Metrics, when non-nil, collects a full telemetry dump (plus sampled
	// series and trace events) for every data point.
	Metrics *MetricsRecorder
	// Faults, when non-nil, installs this fault scenario on every cluster
	// the experiments build (the scalebench -faults flag).
	Faults *faults.Scenario
}

// DefaultOptions is the full-fidelity configuration.
func DefaultOptions() Options {
	return Options{
		Warmup:   1 * sim.Millisecond,
		Duration: 4 * sim.Millisecond,
		Seed:     1,
	}
}

// QuickOptions is the CI configuration.
func QuickOptions() Options {
	return Options{
		Warmup:   300 * sim.Microsecond,
		Duration: 1200 * sim.Microsecond,
		Seed:     1,
		Quick:    true,
	}
}

// Series is one plotted line: Y(X) with a label.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table is free-form tabular output (e.g., the Figure 9 latency table).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Artifact is a machine-readable file an experiment emits alongside its
// rendered tables — e.g. the loadgen experiments attach their full open-loop
// reports as BENCH_loadgen_*.json. scalebench -artifacts writes them out.
type Artifact struct {
	Name string
	Data []byte
}

// Result is one experiment's output.
type Result struct {
	ID        string
	Title     string
	XLabel    string
	YLabel    string
	Series    []Series
	Tables    []Table
	Notes     []string
	Artifacts []Artifact
}

// AddPoint appends (x, y) to the named series, creating it if needed.
func (r *Result) AddPoint(label string, x, y float64) {
	for i := range r.Series {
		if r.Series[i].Label == label {
			r.Series[i].X = append(r.Series[i].X, x)
			r.Series[i].Y = append(r.Series[i].Y, y)
			return
		}
	}
	r.Series = append(r.Series, Series{Label: label, X: []float64{x}, Y: []float64{y}})
}

// AddArtifact attaches a machine-readable output file to the result.
func (r *Result) AddArtifact(name string, data []byte) {
	r.Artifacts = append(r.Artifacts, Artifact{Name: name, Data: data})
}

// Note records a verbatim observation (may contain literal % signs).
func (r *Result) Note(text string) { r.Notes = append(r.Notes, text) }

// Notef records a formatted observation.
func (r *Result) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the result as an aligned text report: one column per
// series, one row per X value.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) > 0 {
		// Collect the union of X values.
		xs := map[float64]bool{}
		for _, s := range r.Series {
			for _, x := range s.X {
				xs[x] = true
			}
		}
		xvals := make([]float64, 0, len(xs))
		for x := range xs {
			xvals = append(xvals, x)
		}
		sort.Float64s(xvals)

		header := []string{r.XLabel}
		for _, s := range r.Series {
			header = append(header, s.Label)
		}
		rows := [][]string{}
		for _, x := range xvals {
			row := []string{trimFloat(x)}
			for _, s := range r.Series {
				cell := "-"
				for i := range s.X {
					if s.X[i] == x {
						cell = trimFloat(s.Y[i])
						break
					}
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
		b.WriteString(renderTable(header, rows))
		fmt.Fprintf(&b, "(y: %s)\n", r.YLabel)
	}
	for _, tbl := range r.Tables {
		if tbl.Title != "" {
			fmt.Fprintf(&b, "-- %s --\n", tbl.Title)
		}
		b.WriteString(renderTable(tbl.Header, tbl.Rows))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV emits the series in long format: series,x,y.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range r.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Label, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// Experiment is a registered experiment entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Result
}

var registry []Experiment

func register(id, title string, run func(Options) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments lists every registered experiment in registration order.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// mops converts an operation (or event) count over a window to millions
// per second.
func mops(ops uint64, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(ops) / (float64(window) / 1e9) / 1e6
}
