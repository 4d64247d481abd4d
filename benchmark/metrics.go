package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The tables below are the
// single source of truth: BENCHMARK.json must list the same names, units
// and directions (bench_test.go checks it), `run` and the driver line
// print them, and `check` gates on Bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which the metric may get
	// worse before `check` calls it a regression. Zero on per-layer
	// metrics: they explain, they do not gate.
	Bound float64
}

// endToEnd lists what a user of the system sees, on both clocks. sim_* is
// virtual time (deterministic per seed); host_* and setup_s are wall clock
// on the machine running the simulator.
//
// The bounds are set by the acceptance protocol, which compares runs made
// with *different* seeds on a shared box: each has to cover, with a factor
// of about three to spare, the seed-to-seed spread of the worst workload
// (sim_*, allocs) or the box's drift (host_ops_per_s, setup_s). For a fixed
// seed the sim_* values repeat exactly, so a same-seed reader of `check`
// can hold them to much less (see README, "Bounds").
var endToEnd = []metricDef{
	{"sim_mops", "Mops/s", "higher", 0.10},
	{"sim_goodput_gbps", "Gbit/s", "higher", 0.10},
	{"sim_p50_us", "us", "lower", 0.20},
	{"sim_p99_us", "us", "lower", 0.25},
	{"host_ops_per_s", "ops/s", "higher", 0.25},
	{"host_allocs_per_op", "allocs/op", "lower", 0.06},
	{"host_live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// failedFrac is the ninth end-to-end metric. It is reported by `run` and
// gated by `check` ("any increase"), but it is always 0 on a healthy tree,
// so it cannot be listed in BENCHMARK.json (spreads there are taken as a
// share of the median). The driver line carries it as attempted/failed.
var failedFrac = metricDef{"failed_frac", "frac", "lower", 0}

// setupAbsFloor is the absolute slack on setup_s: a set-up that is worse by
// less than this many seconds is never a regression, whatever the ratio.
const setupAbsFloor = 0.05

// pkgBuckets are the packages CPU-profile samples are attributed to.
var pkgBuckets = []string{
	"sim", "host", "nic", "cachesim", "pcie", "fabric", "memory", "rpcwire",
	"rpccore", "scalerpc", "rawrpc", "loadgen", "shard", "txn", "mica",
	"telemetry", "stats", "runtime", "other",
}

// perLayer lists the metrics of single layers, all read from outside the
// program: public counters (source A), layer probes (source B, "probe."),
// and the traced run (source C: "span.", "hspan.", "pkg.", "trace.").
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// sim: how many kernel events one op costs, and what one costs.
		lo("sim.events_per_op", "1/op"),
		lo("sim.callbacks_per_op", "1/op"),
		lo("sim.proc_wakes_per_op", "1/op"),
		lo("sim.timer_wakes_per_op", "1/op"),
		lo("sim.signal_wakes_per_op", "1/op"),
		lo("probe.sim.callback_ns", "ns"),
		lo("probe.sim.proc_wake_ns", "ns"),
		lo("probe.sim.signal_wake_ns", "ns"),
		// host: modelled CPU.
		hi("host.server_cpu_util", "frac"),
		lo("host.server_work_ns_per_op", "ns/op"),
		lo("host.client_work_ns_per_op", "ns/op"),
		// nic: modelled RNIC caches and traffic at the server.
		lo("nic.server_qpc_miss_ratio", "frac"),
		lo("nic.server_wqe_miss_ratio", "frac"),
		lo("nic.server_mtt_miss_ratio", "frac"),
		lo("nic.out_wqes_per_op", "1/op"),
		lo("nic.in_msgs_per_op", "1/op"),
		lo("nic.retransmits_per_op", "1/op"),
		lo("nic.rnr_naks_per_op", "1/op"),
		lo("probe.nic.write_ns", "ns"),
		// pcie: the paper's Fig 3/10 counters at the server.
		lo("pcie.server_rdcur_per_op", "1/op"),
		lo("pcie.server_itom_per_op", "1/op"),
		lo("pcie.server_rfo_per_op", "1/op"),
		lo("pcie.server_mmio_per_op", "1/op"),
		// cachesim: modelled LLC/DDIO at the server.
		lo("cachesim.server_ddio_alloc_ratio", "frac"),
		lo("cachesim.server_cpu_miss_ratio", "frac"),
		lo("cachesim.server_evictions_per_op", "1/op"),
		lo("probe.cachesim.dma_write_ns_resident", "ns"),
		lo("probe.cachesim.dma_write_ns_4xllc", "ns"),
		lo("probe.cachesim.cpu_read_ns_resident", "ns"),
		lo("probe.cachesim.cpu_read_ns_4xllc", "ns"),
		// fabric
		hi("fabric.server_link_util", "frac"),
		lo("fabric.msgs_per_op", "1/op"),
		lo("probe.fabric.send_ns", "ns"),
		// memory
		lo("probe.memory.translate_ns", "ns"),
		// rpcwire
		lo("rpcwire.crc_drops", "count"),
		lo("probe.rpcwire.encode_ns_32", "ns"),
		lo("probe.rpcwire.encode_ns_2048", "ns"),
		lo("probe.rpcwire.decode_ns_32", "ns"),
		lo("probe.rpcwire.decode_ns_2048", "ns"),
		// rpccore
		lo("rpccore.retries_per_op", "1/op"),
		lo("rpccore.dedup_hits_per_op", "1/op"),
		lo("rpccore.late_drops_per_op", "1/op"),
		// scalerpc: absent (0) on rawwrite_closed_400.
		lo("scalerpc.switches_per_sim_ms", "1/ms"),
		hi("scalerpc.piggyback_ratio", "frac"),
		lo("scalerpc.warmup_reads_per_op", "1/op"),
		lo("scalerpc.late_served_ratio", "frac"),
		lo("scalerpc.regroups", "count"),
		lo("scalerpc.client_retries_per_op", "1/op"),
		lo("scalerpc.worker_sleeps_per_sweep", "frac"),
		lo("scalerpc.handler_ns_mean", "ns"),
		// loadgen: open loop only.
		lo("loadgen.queue_p99_us", "us"),
		lo("loadgen.backlog_peak", "count"),
		hi("loadgen.offered", "count"),
		// shard / txn / mica: smallbank_shard4 only.
		lo("txn.lock_abort_ratio", "frac"),
		lo("txn.validation_abort_ratio", "frac"),
		lo("shard.redirects_per_op", "1/op"),
		hi("shard.coalesced_per_op", "1/op"),
		lo("probe.mica.get_ns", "ns"),
		lo("probe.mica.put_ns", "ns"),
		// harness: diagnostics of the measurement itself.
		lo("harness.wall_ms_per_rep", "ms"),
		lo("harness.rep_iqr_frac", "frac"),
		lo("harness.cpu_us_per_op", "us/op"),
		lo("harness.alloc_bytes_per_op", "B/op"),
		lo("harness.gc_cycles_per_rep", "count"),
	}
	// Traced run: simulated-time stages of one op...
	for _, st := range []string{"backlog", "request_path", "handler", "response_path"} {
		defs = append(defs, lo("span."+st+"_ns_mean", "ns"), lo("span."+st+"_ns_p99", "ns"))
	}
	defs = append(defs, lo("span.residual_frac", "frac"))
	// ...host-time self times of the regions the benchmark wraps...
	for _, r := range []string{"trysend", "poll", "handler", "run_self"} {
		defs = append(defs, lo("hspan."+r+"_ns_per_op", "ns/op"))
	}
	// ...CPU share by package, and what tracing itself costs.
	for _, p := range pkgBuckets {
		defs = append(defs, lo("pkg."+p+".cpu_share", "frac"))
	}
	defs = append(defs, lo("trace.overhead_frac", "frac"))
	return defs
}

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) does (exclusive method),
// so spreads computed here match the acceptance protocol's.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance of vals as a share of the median.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func minOf(vals []float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		m = math.Min(m, v)
	}
	return m
}
