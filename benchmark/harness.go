package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"scalerpc/internal/cluster"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// Measurement hygiene, found while sizing the benchmark on a shared 2-core
// box and encoded here and in main.go (GOMAXPROCS):
//
//   - Rep 0 of a process runs 10–25 % faster than later reps (the heap is
//     small and no background GC has started), so every run begins with a
//     discarded warm-up rep.
//   - A rep's cluster is garbage only once the rep function has returned;
//     collecting it there keeps a 500 MB sweep out of the next rep's set-up.
//   - Later reps agree within a few percent back to back, but the box slows
//     by 25–35 % for minutes at a time, so all reps of a workload run
//     contiguously in one process and `check` is meant for sets taken back
//     to back.
//   - With two Ps, process CPU time exceeds wall time (hand-offs and GC
//     workers use the second core), so harness.cpu_us_per_op is a diagnostic
//     and the end-to-end speed metric is wall-clock host_ops_per_s.

// drainStep is how often, in virtual time, the drain phase checks whether
// everything in flight has been answered.
const drainStep = 50 * sim.Microsecond

// Counter indexes of a snapshot: every public counter the per-layer metrics
// are computed from (source A). Server-side values are summed over the
// scenario's server hosts.
const (
	cFired = iota
	cCallbacks
	cWakes // all proc wakes
	cTimerWakes
	cSignalWakes
	cNICOut
	cNICIn
	cQPCHit
	cQPCMiss
	cWQEHit
	cWQEMiss
	cMTTHit
	cMTTMiss
	cRetransmits
	cRNRNaks
	cRdCur
	cRFO
	cPCIeItoM
	cMMIO
	cLLCReadHit
	cLLCReadMiss
	cDDIOUpdate
	cDDIOAlloc
	cLLCEvict
	cServerWork
	cClientWork
	cServerTx // server port bytes on the wire, each direction
	cServerRx
	cFabricMsgs // messages sent on any port
	cSwitches
	cWarmupReads
	cNotifies
	cPiggybacked
	cRegroups
	cServed
	cLateServed
	cSweeps
	cSleeps
	cClientRetries
	cRetries
	cDedupHits
	cLateDrops
	cCRCDrops
	cRedirects
	cCoalesced
	cCommits
	cLockAborts
	cValidationAborts
	nCounters
)

type counters [nCounters]uint64

func snapshot(c *cluster.Cluster, sc *scenario) counters {
	var s counters
	s[cFired] = c.Env.Fired()
	cb, wakes := c.Env.FiredBreakdown() // wakes: start, timer, signal, queue, resource
	s[cCallbacks], s[cTimerWakes], s[cSignalWakes] = cb, wakes[1], wakes[2]
	for _, n := range wakes {
		s[cWakes] += n
	}
	for _, h := range sc.serverHosts {
		n := h.NIC.Snapshot()
		s[cNICOut] += n.OutWQEs
		s[cNICIn] += n.InMessages
		s[cQPCHit] += n.QPCHits
		s[cQPCMiss] += n.QPCMisses
		s[cWQEHit] += n.WQEHits
		s[cWQEMiss] += n.WQEMisses
		s[cMTTHit] += n.MTTHits
		s[cMTTMiss] += n.MTTMisses
		s[cRetransmits] += n.Retransmits
		s[cRNRNaks] += n.RNRNaks
		b := h.Bus.Snapshot()
		s[cRdCur] += b.PCIeRdCur
		s[cRFO] += b.RFO
		s[cPCIeItoM] += b.PCIeItoM
		s[cMMIO] += b.MMIOWr
		l := h.LLC.Snapshot()
		s[cLLCReadHit] += l.CPUReadHits
		s[cLLCReadMiss] += l.CPUReadMisses
		s[cDDIOUpdate] += l.DMAUpdates
		s[cDDIOAlloc] += l.DMAAllocs
		s[cLLCEvict] += l.Evictions
		s[cServerWork] += h.CPUWorkNs
		p := c.Fabric.Port(h.ID).Stats
		s[cServerTx] += p.TxBytes
		s[cServerRx] += p.RxBytes
	}
	for _, h := range sc.clientHosts {
		s[cClientWork] += h.CPUWorkNs
	}
	for i := 0; i < c.Fabric.NumPorts(); i++ {
		s[cFabricMsgs] += c.Fabric.Port(i).Stats.TxMessages
	}
	for _, srv := range sc.scale {
		st := srv.Snapshot()
		s[cSwitches] += st.Switches
		s[cWarmupReads] += st.WarmupReads
		s[cNotifies] += st.Notifies
		s[cPiggybacked] += st.Piggybacked
		s[cRegroups] += st.Regroups
		s[cServed] += st.Served
		s[cLateServed] += st.LateServed
		sweeps, sleeps, _ := srv.WorkerDebug()
		s[cSweeps] += sweeps
		s[cSleeps] += sleeps
	}
	for _, conn := range sc.scaleConns {
		s[cClientRetries] += conn.Retries
	}
	rel := rpccore.SharedRel(c.Telemetry)
	s[cRetries], s[cDedupHits], s[cLateDrops], s[cCRCDrops] = rel.Retries, rel.DedupHits, rel.LateDrops, rel.CRCDrops
	if sc.shardStats != nil {
		s[cRedirects], s[cCoalesced] = sc.shardStats.Redirects, sc.shardStats.Coalesced
	}
	for _, co := range sc.coords {
		if co != nil {
			s[cCommits] += co.Stats.Commits
			s[cLockAborts] += co.Stats.LockAborts
			s[cValidationAborts] += co.Stats.ValidationAborts
		}
	}
	return s
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounters turns two snapshots around the timed region (simNs of
// virtual time apart) into the source-A per-layer metrics, normalised per op.
func layerCounters(before, after counters, simNs float64, ops uint64, sc *scenario, c *cluster.Cluster) map[string]float64 {
	var d counters
	for i := range d {
		d[i] = after[i] - before[i]
	}
	perOp := func(i int) float64 { return ratio(d[i], ops) }
	share := func(i, of int) float64 { return ratio(d[i], d[i]+d[of]) }
	txnRuns := d[cCommits] + d[cLockAborts] + d[cValidationAborts]
	m := map[string]float64{
		"sim.events_per_op":       perOp(cFired),
		"sim.callbacks_per_op":    perOp(cCallbacks),
		"sim.proc_wakes_per_op":   perOp(cWakes),
		"sim.timer_wakes_per_op":  perOp(cTimerWakes),
		"sim.signal_wakes_per_op": perOp(cSignalWakes),

		"host.server_work_ns_per_op": perOp(cServerWork),
		"host.client_work_ns_per_op": perOp(cClientWork),

		"nic.server_qpc_miss_ratio": share(cQPCMiss, cQPCHit),
		"nic.server_wqe_miss_ratio": share(cWQEMiss, cWQEHit),
		"nic.server_mtt_miss_ratio": share(cMTTMiss, cMTTHit),
		"nic.out_wqes_per_op":       perOp(cNICOut),
		"nic.in_msgs_per_op":        perOp(cNICIn),
		"nic.retransmits_per_op":    perOp(cRetransmits),
		"nic.rnr_naks_per_op":       perOp(cRNRNaks),

		"pcie.server_rdcur_per_op": perOp(cRdCur),
		"pcie.server_itom_per_op":  perOp(cPCIeItoM),
		"pcie.server_rfo_per_op":   perOp(cRFO),
		"pcie.server_mmio_per_op":  perOp(cMMIO),

		"cachesim.server_ddio_alloc_ratio": share(cDDIOAlloc, cDDIOUpdate),
		"cachesim.server_cpu_miss_ratio":   share(cLLCReadMiss, cLLCReadHit),
		"cachesim.server_evictions_per_op": perOp(cLLCEvict),

		"fabric.msgs_per_op": perOp(cFabricMsgs),

		"rpcwire.crc_drops":         float64(d[cCRCDrops]),
		"rpccore.retries_per_op":    perOp(cRetries),
		"rpccore.dedup_hits_per_op": perOp(cDedupHits),
		"rpccore.late_drops_per_op": perOp(cLateDrops),

		"scalerpc.piggyback_ratio":         share(cPiggybacked, cNotifies),
		"scalerpc.warmup_reads_per_op":     perOp(cWarmupReads),
		"scalerpc.late_served_ratio":       ratio(d[cLateServed], d[cServed]),
		"scalerpc.regroups":                float64(d[cRegroups]),
		"scalerpc.client_retries_per_op":   perOp(cClientRetries),
		"scalerpc.worker_sleeps_per_sweep": ratio(d[cSleeps], d[cSweeps]),

		"txn.lock_abort_ratio":       ratio(d[cLockAborts], txnRuns),
		"txn.validation_abort_ratio": ratio(d[cValidationAborts], txnRuns),
		"shard.redirects_per_op":     perOp(cRedirects),
		"shard.coalesced_per_op":     perOp(cCoalesced),
	}
	if simNs > 0 {
		// Server CPU work over what its worker threads could do; the
		// scheduler thread's work is in the numerator too, so a saturated
		// server reads slightly above 1.
		m["host.server_cpu_util"] = float64(d[cServerWork]) / (float64(sc.workers) * simNs)
		// Busier direction of the server's ports against line rate.
		wire := d[cServerTx]
		if d[cServerRx] > wire {
			wire = d[cServerRx]
		}
		lineBytes := c.Cfg.Fabric.BandwidthGbps / 8 * simNs * float64(len(sc.serverHosts))
		m["fabric.server_link_util"] = float64(wire) / lineBytes
		m["scalerpc.switches_per_sim_ms"] = float64(d[cSwitches]) / (simNs / 1e6)
	}
	return m
}

// registryMeans reads the mean of the ScaleRPC servers' handler_ns
// histograms (whole run, not windowed) from the registry dump — the one
// value the typed snapshots do not expose. The same dump gives loadgen's
// in-window backlog wait.
func registryMeans(c *cluster.Cluster) (handlerNs, queueNs float64) {
	var dump struct {
		Histograms map[string]struct{ Count, Sum uint64 } `json:"histograms"`
	}
	if err := json.Unmarshal(c.Telemetry.JSON(), &dump); err != nil {
		return 0, 0
	}
	var hc, hs uint64
	for name, h := range dump.Histograms {
		if strings.HasPrefix(name, "scalerpc") && strings.HasSuffix(name, ".server.handler_ns") {
			hc += h.Count
			hs += h.Sum
		}
	}
	q := dump.Histograms["loadgen.tenant."+openTenant+".queue_ns"]
	return ratio(hs, hc), ratio(q.Sum, q.Count)
}

// repResult is one rep: the same scenario, built and run from scratch.
type repResult struct {
	outcome
	// Virtual clock: must repeat bit-for-bit for a seed.
	Fired     uint64
	EndClock  sim.Time
	P50ns     int64
	P99ns     int64
	LatMeanNs float64

	// Host clock.
	SetupS     float64
	WallS      float64
	CPUS       float64
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	LiveMB     float64

	Layer   map[string]float64
	QueueNs float64 // open loop: mean backlog wait inside the window

	// Traced rep only.
	spans   []spanRecord
	summary spanSummary
	profile []byte
}

// simKey is everything that must be identical across reps of one sub-seed.
type simKey struct {
	Ops, Attempted, Failed, Bytes, Fired uint64
	EndClock                             sim.Time
	P50ns, P99ns                         int64
}

func (r *repResult) key() simKey {
	return simKey{r.ops, r.attempted, r.total(), r.bytes, r.Fired, r.EndClock, r.P50ns, r.P99ns}
}

// tailQuantile is 0.99, or the highest quantile that still has ten samples
// beyond it when there are fewer than 1000.
func tailQuantile(n uint64) float64 {
	if n >= 1000 || n == 0 {
		return 0.99
	}
	q := 1 - 10/float64(n)
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRep builds the workload from scratch, runs it, and measures it on both
// clocks. The timed region is everything from the end of the simulated
// warm-up to the end of the drain; everything before it is set-up.
func runRep(w *workload, seed uint64, traced bool) (*repResult, error) {
	res, err := measureRep(w, seed, traced)
	// The rep's cluster is unreachable only now; collect it before the
	// next rep's set-up is timed.
	runtime.GC()
	return res, err
}

func measureRep(w *workload, seed uint64, traced bool) (*repResult, error) {
	t0 := time.Now()
	cfg := cluster.Default(w.Hosts)
	cfg.Seed = seed
	c := cluster.New(cfg)
	defer c.Close()
	b := &book{from: w.Warmup, to: w.horizon()}
	if traced {
		b.tr = newTracer()
	}
	sc := w.build(w, c, seed, b)
	c.Env.RunUntil(w.Warmup)
	res := &repResult{SetupS: time.Since(t0).Seconds()}

	before, simStart := snapshot(c, sc), c.Env.Now()
	var prof bytes.Buffer
	if traced {
		if err := startProfile(&prof); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	if traced {
		b.tr.origin = start
	}

	c.Env.RunUntil(w.horizon())
	for !sc.drained() && c.Env.Now() < w.deadline() {
		c.Env.RunUntil(c.Env.Now() + drainStep)
	}

	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	after := snapshot(c, sc)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	// What the model holds per population: live heap and stacks after a
	// forced collection, with the cluster still reachable.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.LiveMB = float64(m1.HeapAlloc+m1.StackInuse) / (1 << 20)

	out, err := sc.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.outcome = out
	res.Fired, res.EndClock = c.Env.Fired(), c.Env.Now()
	if n := out.lat.Count(); n > 0 {
		res.LatMeanNs = out.lat.Mean()
		res.P50ns = out.lat.Quantile(0.5)
		res.P99ns = out.lat.Quantile(tailQuantile(n))
	}
	res.Layer = layerCounters(before, after, float64(res.EndClock-simStart), out.ops, sc, c)
	for k, v := range out.layer {
		res.Layer[k] = v
	}
	res.Layer["scalerpc.handler_ns_mean"], res.QueueNs = registryMeans(c)
	if traced {
		res.summary = summarizeSpans(b.conns, int64(b.from), int64(b.to))
		if len(b.tr.txns) > 0 {
			res.spans = txnRecords(b.tr.txns)
		} else {
			res.spans = spanRecords(b.conns)
		}
	}
	return res, nil
}
