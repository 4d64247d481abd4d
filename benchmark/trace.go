package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"scalerpc/internal/stats"
)

// The traced run is outside-in: the benchmark wraps only what it owns — its
// connections (checkedConn) and its handlers (book.wrapHandler). Spans
// inside the program are a later issue (ROADMAP item 2).

// Boundaries of one op, as seen from outside the program.
const (
	stAccept     = iota // TrySend returned true
	stHandlerIn         // the benchmark's handler was entered
	stHandlerOut        // ... and returned
	stDeliver           // Poll delivered the reply
)

// opSpan holds one op's four boundaries on both clocks: Sim in virtual ns,
// Host in wall-clock ns since the start of the rep's timed region. The
// stages between consecutive boundaries are the op's child spans:
// request_path, handler, response_path.
type opSpan struct {
	Conn uint32
	Seq  uint32
	Sim  [4]int64
	Host [4]int64
}

func (s *opSpan) complete() bool {
	return s.Sim[stHandlerIn] != 0 && s.Sim[stDeliver] != 0
}

// Regions of host time the benchmark can tell apart. Calls into the program
// yield virtual time — the calling goroutine parks and the scheduler runs
// other work — so wall-clock timing around them would charge them for work
// that is not theirs. Instead each region is a goroutine label, and the CPU
// profile's samples are summed by label: only time the labelled goroutine
// was actually on the CPU counts. The labels are exclusive, so these are
// self times.
type region int

const (
	regionNone region = iota
	regionTrySend
	regionPoll
	regionDeliver // the driver's reply callback, a child of Poll
	regionHandler
	regionCount
)

var regionNames = [regionCount]string{"", "trysend", "poll", "deliver", "handler"}

const labelKey = "bench_region"

// profileHz is the traced rep's CPU sampling rate.
const profileHz = 500

type tracer struct {
	origin time.Time
	ctx    [regionCount]context.Context
	txns   []txnSpan // smallbank_shard4 only
}

// txnSpan is one committed transaction: begin and commit on both clocks.
// On smallbank_shard4 the payloads and handlers belong to txn and shard, so
// the Coordinator.Run loop is the only boundary reachable from outside.
type txnSpan struct {
	Coord int
	Sim   [2]int64
	Host  [2]int64
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.ctx[regionNone] = context.Background()
	for r := regionTrySend; r < regionCount; r++ {
		tr.ctx[r] = pprof.WithLabels(context.Background(), pprof.Labels(labelKey, regionNames[r]))
	}
	return tr
}

// enter labels the calling goroutine; leave clears the label. Labels are
// per goroutine and regions nest only as Poll→deliver, which the caller
// handles by re-entering Poll, so no stack is kept.
func (tr *tracer) enter(r region) { pprof.SetGoroutineLabels(tr.ctx[r]) }
func (tr *tracer) leave()         { pprof.SetGoroutineLabels(tr.ctx[regionNone]) }

func (tr *tracer) hostNow() int64 { return int64(time.Since(tr.origin)) }

// startProfile begins CPU profiling at profileHz into buf.
// runtime/pprof fixes its own rate at 100 Hz; setting the rate first makes
// its later attempt a no-op (it prints one warning line to stderr).
func startProfile(buf *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(buf)
}

// stageStats is mean and p99 of one simulated-time stage.
type stageStats struct{ Mean, P99 float64 }

func statsOf(v []int64) stageStats {
	if len(v) == 0 {
		return stageStats{}
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return stageStats{Mean: sum / float64(len(v)), P99: float64(stats.Percentile(v, 99))}
}

// spanSummary aggregates the traced rep's op spans over the ops that were
// both accepted and delivered inside [from, to) — the rule the end-to-end
// latency histograms follow, so the stage means can be set against them.
type spanSummary struct {
	Ops                        int
	Request, Handler, Response stageStats
}

func summarizeSpans(conns []*checkedConn, from, to int64) spanSummary {
	var req, hnd, resp []int64
	for _, c := range conns {
		for i := range c.spans {
			s := &c.spans[i]
			if !s.complete() || s.Sim[stAccept] < from || s.Sim[stDeliver] >= to {
				continue
			}
			req = append(req, s.Sim[stHandlerIn]-s.Sim[stAccept])
			hnd = append(hnd, s.Sim[stHandlerOut]-s.Sim[stHandlerIn])
			resp = append(resp, s.Sim[stDeliver]-s.Sim[stHandlerOut])
		}
	}
	return spanSummary{Ops: len(req), Request: statsOf(req), Handler: statsOf(hnd), Response: statsOf(resp)}
}

// residualFrac is the share of the end-to-end mean latency the stage means
// leave unexplained.
func residualFrac(endToEndMean float64, stageMeans ...float64) float64 {
	if endToEndMean <= 0 {
		return 0
	}
	sum := 0.0
	for _, m := range stageMeans {
		sum += m
	}
	return (endToEndMean - sum) / endToEndMean
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return total
}

// profileSummary is the CPU profile reduced to what the benchmark reports.
type profileSummary struct {
	Samples  int64
	PeriodNs int64
	Region   map[string]int64   // samples by bench_region label ("" = unlabelled)
	PkgShare map[string]float64 // share of samples by package bucket; sums to 1
}

func summarizeProfile(p *cpuProfile) profileSummary {
	s := profileSummary{PeriodNs: p.periodNs, Region: map[string]int64{}, PkgShare: map[string]float64{}}
	pkg := map[string]int64{}
	for _, sm := range p.samples {
		s.Samples += sm.count
		s.Region[sm.labels[labelKey]] += sm.count
		pkg[bucketOfStack(sm.stack)] += sm.count
	}
	for _, b := range pkgBuckets {
		s.PkgShare[b] = ratio(uint64(pkg[b]), uint64(s.Samples))
	}
	return s
}

// regionNs converts a region's samples to host nanoseconds.
func (s profileSummary) regionNs(r region) float64 {
	return float64(s.Region[regionNames[r]] * s.PeriodNs)
}

// spanFileCap bounds how many ops' spans are written out; the aggregates
// always cover every op.
const spanFileCap = 5000

// spanRecord is one span in the written file: name, start, end on both
// clocks, and the span that caused it. Spans of one op share Op.
type spanRecord struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1: caused by the driver
	Op        string `json:"op"`
	Name      string `json:"name"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
}

func spanRecords(conns []*checkedConn) []spanRecord {
	var out []spanRecord
	stages := [3]string{"request_path", "handler", "response_path"}
	for _, c := range conns {
		for i := range c.spans {
			s := &c.spans[i]
			if !s.complete() {
				continue
			}
			if len(out) >= 4*spanFileCap {
				return out
			}
			op := fmt.Sprintf("%d.%d", s.Conn, s.Seq)
			root := len(out)
			out = append(out, spanRecord{ID: root, Parent: -1, Op: op, Name: "op",
				SimStart: s.Sim[stAccept], SimEnd: s.Sim[stDeliver], HostStart: s.Host[stAccept], HostEnd: s.Host[stDeliver]})
			for st, name := range stages {
				out = append(out, spanRecord{ID: len(out), Parent: root, Op: op, Name: name,
					SimStart: s.Sim[st], SimEnd: s.Sim[st+1], HostStart: s.Host[st], HostEnd: s.Host[st+1]})
			}
		}
	}
	return out
}

func txnRecords(txns []txnSpan) []spanRecord {
	if len(txns) > spanFileCap {
		txns = txns[:spanFileCap]
	}
	out := make([]spanRecord, len(txns))
	for i, t := range txns {
		out[i] = spanRecord{ID: i, Parent: -1, Op: fmt.Sprintf("coord%d", t.Coord), Name: "txn",
			SimStart: t.Sim[0], SimEnd: t.Sim[1], HostStart: t.Host[0], HostEnd: t.Host[1]}
	}
	return out
}

// writeTraceFiles writes <workload>.spans.json and <workload>.pprof.
func writeTraceFiles(dir, workload string, spans []spanRecord, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Note     string       `json:"note"`
		Spans    []spanRecord `json:"spans"`
	}{workload, fmt.Sprintf("first %d ops of the traced rep; aggregates cover all ops", spanFileCap), spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".spans.json"), b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".pprof"), prof, 0o644)
}
