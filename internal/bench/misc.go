package bench

import (
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

func init() {
	register("sec51", "UD chunked large-message transfer vs RC (single thread)", runSec51)
	register("ablate", "ScaleRPC ablation: isolate each design mechanism", runAblate)
}

// runSec51 reproduces the §5.1 measurement: UD cannot carry >4 KB
// messages, so ordered large transfers must be cut into 4 KB chunks with
// per-chunk acknowledgement; a single thread then achieves a fraction of
// the RC streaming bandwidth.
func runSec51(opts Options) *Result {
	r := &Result{
		ID: "sec51", Title: "Large-message bandwidth: RC write vs UD 4KB stop-and-wait",
		XLabel: "transfer (MB)", YLabel: "GB/s",
	}
	const msg = 1 << 20 // 1 MB messages
	totalMB := 64
	if opts.Quick {
		totalMB = 16
	}

	// RC: stream 1 MB writes back to back.
	{
		c := opts.newCluster(2, 0)
		src := c.Hosts[0].Mem.Register(msg, memory.PageSize2M, memory.LocalWrite)
		dst := c.Hosts[1].Mem.Register(msg, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
		cq := c.Hosts[0].NIC.CreateCQ()
		qp := c.Hosts[0].NIC.CreateQP(nic.RC, cq, cq)
		rcq := c.Hosts[1].NIC.CreateCQ()
		rqp := c.Hosts[1].NIC.CreateQP(nic.RC, rcq, rcq)
		nic.Connect(qp, rqp)
		var done sim.Time
		c.Hosts[0].Spawn("rc-sender", func(t *host.Thread) {
			for sent := 0; sent < totalMB; sent++ {
				t.PostSend(qp, nic.SendWR{Op: nic.OpWrite, Signaled: sent == totalMB-1,
					LKey: src.LKey, LAddr: src.Base, Len: msg,
					RKey: dst.RKey, RAddr: dst.Base})
			}
			for len(t.PollCQ(cq, 1)) == 0 {
				cq.Sig.WaitTimeout(t.P, 50*sim.Microsecond)
			}
			done = t.P.Now()
		})
		c.Env.RunUntil(sim.Second)
		opts.Metrics.Record("sec51/rc", c)
		c.Close()
		gbps := float64(totalMB) / (float64(done) / 1e9) / 1024
		r.AddPoint("RC-write", float64(totalMB), gbps)
	}

	// UD: 4 KB chunks, each acknowledged by the receiver before the next
	// is sent (the ordered-transfer protocol §5.1 describes).
	{
		c := opts.newCluster(2, 0)
		a, b := c.Hosts[0], c.Hosts[1]
		const chunk = 4096
		src := a.Mem.Register(chunk, memory.PageSize4K, memory.LocalWrite)
		ackBuf := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
		rbuf := b.Mem.Register(chunk*4, memory.PageSize2M, memory.LocalWrite)
		ackSrc := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
		acq := a.NIC.CreateCQ()
		aqp := a.NIC.CreateQP(nic.UD, acq, acq)
		bcq := b.NIC.CreateCQ()
		bqp := b.NIC.CreateQP(nic.UD, bcq, bcq)
		for i := 0; i < 4; i++ {
			bqp.PostRecv(nic.RecvWR{WRID: uint64(i), LKey: rbuf.LKey,
				LAddr: rbuf.Base + uint64(i*chunk), Len: chunk})
		}
		// Receiver thread: ack every chunk.
		b.Spawn("ud-recv", func(t *host.Thread) {
			for {
				for _, e := range t.PollCQ(bcq, 4) {
					t.PostRecv(bqp, nic.RecvWR{WRID: e.WRID, LKey: rbuf.LKey,
						LAddr: rbuf.Base + e.WRID*chunk, Len: chunk})
					t.PostSend(bqp, nic.SendWR{Op: nic.OpSend, LKey: ackSrc.LKey,
						LAddr: ackSrc.Base, Len: 8, DstNIC: a.NIC.ID(), DstQPN: aqp.QPN})
				}
				bcq.Sig.WaitTimeout(t.P, 20*sim.Microsecond)
			}
		})
		var done sim.Time
		a.Spawn("ud-send", func(t *host.Thread) {
			chunks := totalMB * (1 << 20) / chunk
			for i := 0; i < chunks; i++ {
				t.PostRecv(aqp, nic.RecvWR{LKey: ackBuf.LKey, LAddr: ackBuf.Base, Len: 64})
				t.PostSend(aqp, nic.SendWR{Op: nic.OpSend, LKey: src.LKey, LAddr: src.Base,
					Len: chunk, DstNIC: b.NIC.ID(), DstQPN: bqp.QPN})
				for len(t.PollCQ(acq, 4)) == 0 {
					acq.Sig.WaitTimeout(t.P, 20*sim.Microsecond)
				}
			}
			done = t.P.Now()
		})
		c.Env.RunUntil(10 * sim.Second)
		opts.Metrics.Record("sec51/ud", c)
		c.Close()
		gbps := float64(totalMB) / (float64(done) / 1e9) / 1024
		r.AddPoint("UD-4KB-acked", float64(totalMB), gbps)
	}
	r.Note("paper: the UD prototype reached 0.8 GB/s with one thread, ~12.5% of RC bandwidth")
	return r
}

// runAblate isolates ScaleRPC's design mechanisms (DESIGN.md §4): warmup
// off (cold switches), dynamic scheduling off, grouping effectively off
// (one giant group = RawWrite-with-small-pool), and a 4 KB-page pool
// (MTT pressure instead of huge pages).
func runAblate(opts Options) *Result {
	r := &Result{
		ID: "ablate", Title: "ScaleRPC ablation (160 clients, batch 8)",
		XLabel: "variant", YLabel: "Mops/s",
	}
	n := 160
	variants := []struct {
		name string
		tune func(*scalerpc.ServerConfig)
	}{
		{"full", nil},
		{"no-warmup", func(cfg *scalerpc.ServerConfig) {
			// Effectively disable prefetching: entries are still read, but
			// only once per slice, right before the switch.
			cfg.WarmupPollInterval = cfg.TimeSlice
		}},
		{"static-sched", func(cfg *scalerpc.ServerConfig) { cfg.Dynamic = false }},
		{"one-group", func(cfg *scalerpc.ServerConfig) { cfg.GroupSize = 512 }},
		{"tiny-slice", func(cfg *scalerpc.ServerConfig) { cfg.TimeSlice = 20 * sim.Microsecond }},
	}
	tbl := Table{Header: []string{"variant", "Mops/s"}}
	for i, v := range variants {
		out := runRPC(rpcRun{
			transport: "ScaleRPC", threads: n, batch: 8, payload: 32,
			tuneScale: v.tune, opts: opts,
		})
		r.AddPoint(v.name, float64(i), out.tputMops)
		tbl.Rows = append(tbl.Rows, []string{v.name, fmt.Sprintf("%.3f", out.tputMops)})
	}
	r.Tables = append(r.Tables, tbl)
	r.Note("expected: full ≥ static-sched > no-warmup and tiny-slice; one-group approximates RawWrite behaviour at this client count")
	return r
}

func init() {
	register("ext-dct", "Extension: DCT vs RC outbound scaling (§5.1)", runExtDCT)
}

// runDCTOutbound measures 10 server threads writing 32 B messages to
// nClients DCT targets through one DCT initiator per thread: the NIC
// holds 10 contexts regardless of client count, but round-robin fan-out
// reconnects on every message.
func runDCTOutbound(nClients int, opts Options) (float64, float64) {
	c := opts.newCluster(12, 0)
	defer c.Close()
	srv := c.Hosts[0]
	src := srv.Mem.Register(64<<10, memory.PageSize2M, memory.LocalWrite)
	perThread := make([][]outTarget, outThreads)
	cqs := make([]*nic.CQ, outThreads)
	inis := make([]*nic.QP, outThreads)
	for i := range cqs {
		cqs[i] = srv.NIC.CreateCQ()
		inis[i] = srv.NIC.CreateDCTInitiator(cqs[i], cqs[i])
	}
	sinks := make([]*memory.Region, 12)
	for i := 0; i < nClients; i++ {
		ch := c.Hosts[1+i%11]
		rkey, raddr := outSink(sinks, ch, i, nClients)
		tcq := ch.NIC.CreateCQ()
		tq := ch.NIC.CreateDCTTarget(tcq, tcq)
		tid := i % outThreads
		perThread[tid] = append(perThread[tid], outTarget{
			qp: inis[tid], dstNIC: ch.NIC.ID(), dstQPN: tq.QPN, rkey: rkey, raddr: raddr,
		})
	}
	postOutbound(srv, "dct-w", src, cqs, perThread)
	cnt := measureWindow(c, opts, fmt.Sprintf("dct-outbound/c%d", nClients))
	packets := float64(c.Fabric.Port(0).Stats.TxMessages)
	return mops(cnt.outWQEs, opts.Duration), packets / float64(cnt.outWQEs+1)
}

// runExtDCT compares RC and DCT outbound fan-out: RC collapses with the
// client count while DCT stays flat at a lower peak, paying the doubled
// packet count and connect latency §5.1 describes.
func runExtDCT(opts Options) *Result {
	r := &Result{
		ID: "ext-dct", Title: "Extension: outbound 32 B writes, RC vs DCT",
		XLabel: "clients", YLabel: "Mops/s",
	}
	for _, n := range clientSweep(opts.Quick) {
		rc, _ := MeasureOutboundWrite(n, opts)
		r.AddPoint("RC", float64(n), rc)
		dct, pktRatio := runDCTOutbound(n, opts)
		r.AddPoint("DCT", float64(n), dct)
		r.AddPoint("DCT-pkts-per-op", float64(n), pktRatio)
	}
	r.Note("§5.1: DCT shares one context per initiator so it scales, but the per-message connect roughly doubles the packets of small requests and adds switch latency")
	return r
}

func init() {
	register("ext-latency", "Extension: latency-sensitive (pinned) clients vs rotation", runExtLatency)
}

// runExtLatency demonstrates the §3.6.2 future-work direction implemented
// in this repository: a handful of latency-sensitive clients connect to
// reserved zones and are served in every slice, getting RC-level tail
// latency while 160 regular clients rotate through groups around them.
func runExtLatency(opts Options) *Result {
	r := &Result{
		ID: "ext-latency", Title: "Pinned (latency-sensitive) vs rotating clients, 160-client background",
		XLabel: "percentile", YLabel: "latency (us)",
	}
	c := opts.newCluster(12, 0)
	defer c.Close()
	_, s := startEcho("ScaleRPC", c.Hosts[0], func(cfg *scalerpc.ServerConfig) { cfg.ReservedZones = 4 })

	// 160 regular clients rotate through groups; the last 4 are pinned.
	const regular = 160
	sts := runDrivers(c, opts, regular+4, func(i int) driverClient {
		sig := sim.NewSignal(c.Env)
		ch, seed, connect := c.Hosts[1+i%11], i, s.Connect
		if i >= regular {
			ch, seed, connect = c.Hosts[1+i-regular], 1000+i-regular, s.ConnectLatencySensitive
		}
		conn := connect(ch, sig)
		if conn == nil {
			panic("bench: reserved zones exhausted")
		}
		return driverClient{host: ch, conns: []rpccore.Conn{conn}, sig: sig, cfg: rpccore.DriverConfig{
			Batch: 1, Handler: 1, PayloadSize: 32, Seed: uint64(seed), StartDelay: sim.Duration(seed%64) * 311,
		}}
	}, nil)
	opts.Metrics.Record("ext-latency", c)

	regN, regHist := merged(sts[:regular])
	pinN, pinHist := merged(sts[regular:])
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		r.AddPoint("regular", q*100, float64(regHist.Quantile(q))/1000)
		r.AddPoint("pinned", q*100, float64(pinHist.Quantile(q))/1000)
	}
	r.Notef("regular tput %.2f Mops/s over %d clients; pinned tput %.2f Mops/s over %d clients",
		mops(regN, opts.Duration), regular, mops(pinN, opts.Duration), len(sts)-regular)
	r.Note("expected: pinned tail latency stays near the RC round trip; regular tails stretch toward the rotation period")
	return r
}
