package main

import (
	"fmt"
	"io"
	"time"

	"scalerpc/internal/stats"
)

// metricValue is one reported metric. Host-clock metrics carry the spread
// of their per-rep samples; virtual-clock metrics are exact and carry none.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything `run` (and optionally `trace`) measured for
// one workload. It is what `check` compares.
type workloadResult struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	Reps int    `json:"timed_reps"`
	// SubSeeds is how many distinct sub-seeds the sim_* values pool;
	// results are comparable only when it is the same on both sides.
	SubSeeds int `json:"sub_seeds"`

	EndToEnd   map[string]metricValue `json:"end_to_end"`
	FailedFrac float64                `json:"failed_frac"`
	// Summed over the pooled reps (one per sub-seed).
	Ops         uint64   `json:"ops"`
	Attempted   uint64   `json:"attempted"`
	Failed      uint64   `json:"failed"`
	Failures    failures `json:"failures"`
	LatSamples  uint64   `json:"latency_samples"`
	P99Quantile float64  `json:"p99_quantile"`
	Events      uint64   `json:"sim_events"`

	PerLayer map[string]float64 `json:"per_layer"`

	first *repResult // an untraced rep of sub-seed 0, for the traced rep to be compared against
}

func hostMetric(samples []float64) metricValue {
	q1, med, q3 := quartiles(samples)
	return metricValue{Value: med, Min: minOf(samples), Q1: q1, Q3: q3, Samples: samples}
}

// subSeeds is how many differently seeded variants of the scenario one run
// cycles through. A single 3–6 ms window is one short trajectory of a
// chaotic system (the NIC caches evict at random, the scheduler regroups on
// thresholds): its throughput moves by a few percent and its tail by 10–20 %
// from seed to seed. Pooling six trajectories per run brings that down
// without simulating more time than the budget allows. The sim_* values of a
// run are therefore a deterministic function of (seed, subSeeds).
const subSeeds = 6

func subSeed(seed uint64, k int) uint64 { return seed*1_000_003 + uint64(k%subSeeds) }

// runWorkload runs one discarded warm-up rep and then timed reps, rep i on
// sub-seed i mod subSeeds: exactly reps of them, or — when budget is set —
// as many as start within budget, and at least subSeeds. Reps of the same
// sub-seed are the identical scenario and must agree on the virtual clock
// bit for bit; the warm-up rep is the first timed rep's twin, so every run
// makes that check at least once.
func runWorkload(w *workload, seed uint64, reps int, budget time.Duration, log io.Writer) (*workloadResult, error) {
	first, err := runRep(w, subSeed(seed, 0), false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: warm-up rep %.2fs set-up + %.2fs timed (discarded)\n", w.Name, first.SetupS, first.WallS)
	twin := [subSeeds]*repResult{first}
	var timed []*repResult
	began := time.Now()
	for i := 0; ; i++ {
		if budget > 0 {
			if i >= subSeeds && time.Since(began) >= budget {
				break
			}
		} else if i >= reps {
			break
		}
		r, err := runRep(w, subSeed(seed, i), false)
		if err != nil {
			return nil, err
		}
		if t := twin[i%subSeeds]; t == nil {
			twin[i%subSeeds] = r
		} else if r.key() != t.key() {
			return nil, fmt.Errorf("%s: rep %d is not deterministic: %+v, an earlier rep of the same sub-seed had %+v", w.Name, i+1, r.key(), t.key())
		}
		timed = append(timed, r)
	}
	res := assemble(w, seed, timed)
	res.first = first
	return res, nil
}

func assemble(w *workload, seed uint64, timed []*repResult) *workloadResult {
	pooled := timed
	if len(pooled) > subSeeds {
		pooled = pooled[:subSeeds]
	}
	res := &workloadResult{Name: w.Name, Seed: seed, Reps: len(timed), SubSeeds: len(pooled)}
	lat := stats.NewHistogram()
	var bytes uint64
	for _, r := range pooled {
		res.Ops += r.ops
		res.Attempted += r.attempted
		res.Failures.add(r.failures)
		res.Events += r.Fired
		bytes += r.bytes
		lat.Merge(r.lat)
	}
	res.Failed = res.Failures.total()
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	res.LatSamples = lat.Count()
	res.P99Quantile = tailQuantile(res.LatSamples)
	windowS := float64(w.Window) / 1e9 * float64(len(pooled))
	var opsPerS, allocs, live, setup, wallMs, cpuUs, allocB, gcs []float64
	for _, r := range timed {
		opsPerS = append(opsPerS, float64(r.ops)/r.WallS)
		allocs = append(allocs, float64(r.Mallocs)/float64(r.ops))
		live = append(live, r.LiveMB)
		setup = append(setup, r.SetupS)
		wallMs = append(wallMs, r.WallS*1e3)
		cpuUs = append(cpuUs, r.CPUS*1e6/float64(r.ops))
		allocB = append(allocB, float64(r.AllocBytes)/float64(r.ops))
		gcs = append(gcs, float64(r.GCCycles))
	}
	res.EndToEnd = map[string]metricValue{
		"sim_mops":           {Value: float64(res.Ops) / windowS / 1e6},
		"sim_goodput_gbps":   {Value: float64(bytes) * 8 / windowS / 1e9},
		"sim_p50_us":         {Value: float64(lat.Quantile(0.5)) / 1e3},
		"sim_p99_us":         {Value: float64(lat.Quantile(res.P99Quantile)) / 1e3},
		"host_ops_per_s":     hostMetric(opsPerS),
		"host_allocs_per_op": hostMetric(allocs),
		"host_live_mb":       hostMetric(live),
		"setup_s":            hostMetric(setup),
	}
	for _, d := range endToEnd {
		m := res.EndToEnd[d.Name]
		m.Unit = d.Unit
		res.EndToEnd[d.Name] = m
	}
	// Per-layer counters explain, they do not gate: sub-seed 0's are shown.
	res.PerLayer = map[string]float64{}
	for k, v := range timed[0].Layer {
		res.PerLayer[k] = v
	}
	med := func(v []float64) float64 { _, m, _ := quartiles(v); return m }
	res.PerLayer["harness.wall_ms_per_rep"] = med(wallMs)
	res.PerLayer["harness.rep_iqr_frac"] = spread(opsPerS)
	res.PerLayer["harness.cpu_us_per_op"] = med(cpuUs)
	res.PerLayer["harness.alloc_bytes_per_op"] = med(allocB)
	res.PerLayer["harness.gc_cycles_per_rep"] = med(gcs)
	return res
}

// traceWorkload runs the one extra traced rep and adds the source-C metrics
// to res.PerLayer. The traced rep is never used for end-to-end numbers, and
// its virtual-clock results must equal the untraced ones: the wrappers
// charge no virtual time.
func traceWorkload(w *workload, seed uint64, res *workloadResult, outDir string) error {
	r, err := runRep(w, subSeed(seed, 0), true)
	if err != nil {
		return err
	}
	if r.key() != res.first.key() {
		return fmt.Errorf("%s: traced rep changed the simulation: %+v, untraced %+v", w.Name, r.key(), res.first.key())
	}
	prof, err := parseCPUProfile(r.profile)
	if err != nil {
		return err
	}
	ps := summarizeProfile(prof)
	ops := float64(r.ops)
	pl := res.PerLayer

	s := r.summary
	pl["span.backlog_ns_mean"] = r.QueueNs
	pl["span.backlog_ns_p99"] = r.Layer["loadgen.queue_p99_us"] * 1e3
	pl["span.request_path_ns_mean"], pl["span.request_path_ns_p99"] = s.Request.Mean, s.Request.P99
	pl["span.handler_ns_mean"], pl["span.handler_ns_p99"] = s.Handler.Mean, s.Handler.P99
	pl["span.response_path_ns_mean"], pl["span.response_path_ns_p99"] = s.Response.Mean, s.Response.P99
	if s.Ops > 0 {
		pl["span.residual_frac"] = residualFrac(r.LatMeanNs, r.QueueNs, s.Request.Mean, s.Handler.Mean, s.Response.Mean)
	}

	trysend, poll, deliver, handler := ps.regionNs(regionTrySend), ps.regionNs(regionPoll), ps.regionNs(regionDeliver), ps.regionNs(regionHandler)
	pl["hspan.trysend_ns_per_op"] = trysend / ops
	pl["hspan.poll_ns_per_op"] = poll / ops
	pl["hspan.handler_ns_per_op"] = handler / ops
	pl["hspan.run_self_ns_per_op"] = selfTime(r.WallS*1e9, trysend, poll, deliver, handler) / ops
	for p, share := range ps.PkgShare {
		pl["pkg."+p+".cpu_share"] = share
	}
	untraced := res.EndToEnd["host_ops_per_s"].Value
	pl["trace.overhead_frac"] = 1 - (ops/r.WallS)/untraced

	return writeTraceFiles(outDir, w.Name, r.spans, r.profile)
}

// printWorkload writes every metric by name with its unit.
func printWorkload(out io.Writer, res *workloadResult) {
	fmt.Fprintf(out, "\n== %s  seed %d, %d timed reps over %d sub-seeds, %d ops, %d latency samples, tail quantile %.4g ==\n",
		res.Name, res.Seed, res.Reps, res.SubSeeds, res.Ops, res.LatSamples, res.P99Quantile)
	fmt.Fprintf(out, "  %-22s %14s %-10s %s\n", "end-to-end", "value", "unit", "min / q1 / q3 over timed reps")
	for _, d := range endToEnd {
		m := res.EndToEnd[d.Name]
		line := fmt.Sprintf("  %-22s %14.6g %-10s", d.Name, m.Value, m.Unit)
		if len(m.Samples) > 0 {
			line += fmt.Sprintf(" %.6g / %.6g / %.6g", m.Min, m.Q1, m.Q3)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  %-22s %14.6g %-10s (%d failed of %d attempted: %d errored, %d wrong payload, %d abandoned)\n",
		failedFrac.Name, res.FailedFrac, failedFrac.Unit, res.Failed, res.Attempted, res.Failures.Errored, res.Failures.Wrong, res.Failures.Abandoned)
	fmt.Fprintln(out, "  per-layer")
	printLayers(out, res.PerLayer)
}

// printLayers prints the per-layer metrics present in m, in table order.
func printLayers(out io.Writer, m map[string]float64) {
	for _, d := range perLayer {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(out, "    %-40s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}
