package telemetry

import (
	"encoding/json"
	"sort"
)

// jsonHistBucket is one non-empty bucket of stats.Histogram.BitLenBuckets:
// values v with bits.Len64(v) == Bit, i.e. 2^(Bit-1) ≤ v < 2^Bit (Bit 1
// holds every v ≤ 1).
type jsonHistBucket struct {
	Bit int    `json:"bit"`
	N   uint64 `json:"n"`
}

type jsonHist struct {
	Count   uint64           `json:"count"`
	Sum     uint64           `json:"sum"`
	Buckets []jsonHistBucket `json:"buckets"`
}

type jsonSeries struct {
	Metric     string    `json:"metric"`
	IntervalNs int64     `json:"interval_ns"`
	T          []int64   `json:"t_ns"`
	V          []float64 `json:"v"`
}

type jsonAttrs map[string]int64

type jsonEvent struct {
	AtNs  int64     `json:"t_ns"`
	Kind  string    `json:"kind"`
	Attrs jsonAttrs `json:"attrs,omitempty"`
}

type jsonDump struct {
	Counters     map[string]uint64   `json:"counters"`
	Gauges       map[string]float64  `json:"gauges,omitempty"`
	Histograms   map[string]jsonHist `json:"histograms,omitempty"`
	Series       []jsonSeries        `json:"series,omitempty"`
	Trace        []jsonEvent         `json:"trace,omitempty"`
	TraceDropped uint64              `json:"trace_dropped,omitempty"`
}

// dump builds the serializable view of the registry. encoding/json emits
// map keys in sorted order, which (with the sorted series slice and the
// emission-ordered trace) makes the output deterministic byte-for-byte.
func (r *Registry) dump() jsonDump {
	d := jsonDump{Counters: map[string]uint64{}}
	for name, e := range r.entries {
		switch e.kind {
		case KindCounter:
			d.Counters[name] = *e.c
		case KindGauge:
			if d.Gauges == nil {
				d.Gauges = map[string]float64{}
			}
			d.Gauges[name] = *e.g
		case KindHistogram:
			if d.Histograms == nil {
				d.Histograms = map[string]jsonHist{}
			}
			jh := jsonHist{Count: e.h.Count(), Sum: uint64(e.h.Sum())}
			for bit, n := range e.h.BitLenBuckets() {
				if n > 0 {
					jh.Buckets = append(jh.Buckets, jsonHistBucket{Bit: bit, N: n})
				}
			}
			d.Histograms[name] = jh
		}
	}
	for _, s := range r.samplers {
		for _, se := range s.SeriesList() {
			js := jsonSeries{Metric: se.Metric, IntervalNs: int64(s.Interval)}
			for i := range se.T {
				js.T = append(js.T, int64(se.T[i]))
				js.V = append(js.V, se.V[i])
			}
			d.Series = append(d.Series, js)
		}
	}
	sort.SliceStable(d.Series, func(i, j int) bool { return d.Series[i].Metric < d.Series[j].Metric })
	for _, ev := range r.trace.Events {
		je := jsonEvent{AtNs: int64(ev.At), Kind: ev.Kind}
		if len(ev.Attrs) > 0 {
			je.Attrs = jsonAttrs{}
			for _, a := range ev.Attrs {
				je.Attrs[a.K] = a.V
			}
		}
		d.Trace = append(d.Trace, je)
	}
	d.TraceDropped = r.trace.Dropped
	return d
}

// MarshalJSON implements json.Marshaler with deterministic output.
func (r *Registry) MarshalJSON() ([]byte, error) { return json.Marshal(r.dump()) }

// JSON returns the indented registry dump.
func (r *Registry) JSON() []byte {
	b, err := json.MarshalIndent(r.dump(), "", " ")
	if err != nil { // all value types are marshalable; unreachable
		panic(err)
	}
	return b
}
