package bench

import (
	"encoding/json"
	"os"

	"scalerpc/internal/cluster"
)

// MetricsRecorder collects full telemetry-registry dumps — counters, gauges,
// histograms, sampled time series and trace events — for every data point of
// the experiments it is attached to (via Options.Metrics). The result is a
// machine-readable JSON companion to the rendered tables, so a figure's
// shape can be traced back to the underlying NIC/PCIe/LLC/RPC counters.
type MetricsRecorder struct {
	Experiments []*ExperimentMetrics `json:"experiments"`
	cur         *ExperimentMetrics
}

// ExperimentMetrics groups one experiment's per-point dumps.
type ExperimentMetrics struct {
	ID     string         `json:"id"`
	Points []MetricsPoint `json:"points"`
}

// MetricsPoint is one data point's registry dump.
type MetricsPoint struct {
	Label   string          `json:"label"`
	Metrics json.RawMessage `json:"metrics"`
}

// Begin opens a new experiment group; subsequent Record calls append to it.
func (m *MetricsRecorder) Begin(id string) {
	if m == nil {
		return
	}
	e := &ExperimentMetrics{ID: id}
	m.Experiments = append(m.Experiments, e)
	m.cur = e
}

// Record captures one registry dump under the given point label.
func (m *MetricsRecorder) Record(label string, c *cluster.Cluster) {
	if m == nil {
		return
	}
	if m.cur == nil {
		m.Begin("adhoc")
	}
	b, err := json.Marshal(c.Telemetry)
	if err != nil { // all registry value types are marshalable; unreachable
		panic(err)
	}
	m.cur.Points = append(m.cur.Points, MetricsPoint{Label: label, Metrics: b})
}

// JSON returns the indented recorder dump.
func (m *MetricsRecorder) JSON() []byte {
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		panic(err)
	}
	return b
}

// WriteFile writes the recorder dump to path.
func (m *MetricsRecorder) WriteFile(path string) error {
	return os.WriteFile(path, m.JSON(), 0o644)
}
