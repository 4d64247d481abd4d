package bench

import (
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

func init() {
	register("fig1b", "Raw throughput of RDMA verbs vs number of clients", runFig1b)
	register("fig3a", "Inbound/outbound RC write throughput and PCIe read rates", runFig3a)
	register("fig3b", "Inbound RC write throughput and cache behaviour vs message block size", runFig3b)
}

// rawCounters snapshots the server-side counters a raw experiment reports.
type rawCounters struct {
	outWQEs    uint64
	inMsgs     uint64
	rnrDrops   uint64
	pcieRdCur  uint64
	pcieItoM   uint64
	dmaUpdates uint64
	dmaAllocs  uint64
}

func snapshotRaw(h *host.Host) rawCounters {
	llc := h.LLC.Snapshot()
	return rawCounters{
		outWQEs:    h.NIC.Stats.OutWQEs,
		inMsgs:     h.NIC.Stats.InMessages,
		rnrDrops:   h.NIC.Stats.RNRDrops,
		pcieRdCur:  h.Bus.Snapshot().PCIeRdCur,
		pcieItoM:   h.Bus.Snapshot().PCIeItoM,
		dmaUpdates: llc.DMAUpdates,
		dmaAllocs:  llc.DMAAllocs,
	}
}

func (a rawCounters) sub(b rawCounters) rawCounters {
	return rawCounters{
		outWQEs:    a.outWQEs - b.outWQEs,
		inMsgs:     a.inMsgs - b.inMsgs,
		rnrDrops:   a.rnrDrops - b.rnrDrops,
		pcieRdCur:  a.pcieRdCur - b.pcieRdCur,
		pcieItoM:   a.pcieItoM - b.pcieItoM,
		dmaUpdates: a.dmaUpdates - b.dmaUpdates,
		dmaAllocs:  a.dmaAllocs - b.dmaAllocs,
	}
}

// measureWindow runs warmup, snapshots, runs the measurement window, and
// returns the counter deltas at the server — warmup-window events never
// reach the reported rates. When metrics are being recorded the data
// point's registry dump is captured under label.
func measureWindow(c *cluster.Cluster, opts Options, label string) rawCounters {
	opts.instrument(c)
	c.Env.RunUntil(opts.Warmup)
	start := snapshotRaw(c.Hosts[0])
	c.Env.RunUntil(opts.Warmup + opts.Duration)
	out := snapshotRaw(c.Hosts[0]).sub(start)
	opts.Metrics.Record(label, c)
	return out
}

const rawMsgSize = 32

// runOutboundWrite measures the server posting 32 B RC writes to nClients
// remote QPs from 10 threads (the paper's outbound verb test).
func runOutboundWrite(nClients int, opts Options) rawCounters {
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	srv := c.Hosts[0]
	src := srv.Mem.Register(64<<10, memory.PageSize2M, memory.LocalWrite)

	// One sink region per client host; each client gets a 4 KB slot.
	sinks := make([]*memory.Region, 12)
	type target struct {
		qp    *nic.QP
		rkey  uint32
		raddr uint64
	}
	const threads = 10
	perThread := make([][]target, threads)
	cqs := make([]*nic.CQ, threads)
	for i := 0; i < threads; i++ {
		cqs[i] = srv.NIC.CreateCQ()
	}
	for i := 0; i < nClients; i++ {
		ch := c.Hosts[1+i%11]
		if sinks[ch.ID] == nil {
			sinks[ch.ID] = ch.Mem.Register(4096*((nClients/11)+2), memory.PageSize2M,
				memory.LocalWrite|memory.RemoteWrite)
		}
		tid := i % threads
		sqp := srv.NIC.CreateQP(nic.RC, cqs[tid], cqs[tid])
		ccq := ch.NIC.CreateCQ()
		cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
		if err := nic.Connect(sqp, cqp); err != nil {
			panic(err)
		}
		perThread[tid] = append(perThread[tid], target{
			qp: sqp, rkey: sinks[ch.ID].RKey, raddr: sinks[ch.ID].Base + uint64((i/11)*4096),
		})
	}
	for tid := 0; tid < threads; tid++ {
		tid := tid
		if len(perThread[tid]) == 0 {
			continue
		}
		srv.Spawn(fmt.Sprintf("out-w%d", tid), func(t *host.Thread) {
			const window = 64
			outstanding, next := 0, 0
			for {
				tg := perThread[tid][next%len(perThread[tid])]
				next++
				t.PostSend(tg.qp, nic.SendWR{
					Op: nic.OpWrite, Signaled: true,
					LKey: src.LKey, LAddr: src.Base, Len: rawMsgSize,
					RKey: tg.rkey, RAddr: tg.raddr,
				})
				outstanding++
				for outstanding >= window {
					outstanding -= len(t.WaitCQ(cqs[tid], window, 5*sim.Microsecond))
				}
			}
		})
	}
	return measureWindow(c, opts, fmt.Sprintf("outbound-write/c%d", nClients))
}

// runInboundWrite measures nClients remote QPs each RC-writing 32 B
// messages into the server. With rotate set, writers cycle through 20
// blocks of blockSize bytes (the Figure 3(b) layout); otherwise each
// client hammers a single fixed 64 B slot.
func runInboundWrite(nClients int, blockSize int, rotate bool, opts Options) rawCounters {
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	srv := c.Hosts[0]
	const blocksPerClient = 20
	span := blockSize * blocksPerClient
	pool := srv.Mem.Register(span*nClients+4096, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteWrite)
	for i := 0; i < nClients; i++ {
		i := i
		ch := c.Hosts[1+i%11]
		src := ch.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		ccq := ch.NIC.CreateCQ()
		cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
		scq := srv.NIC.CreateCQ()
		sqp := srv.NIC.CreateQP(nic.RC, scq, scq)
		if err := nic.Connect(cqp, sqp); err != nil {
			panic(err)
		}
		base := pool.Base + uint64(i*span)
		ch.Spawn(fmt.Sprintf("in-c%d", i), func(t *host.Thread) {
			const window = 8
			outstanding, seq := 0, 0
			msgsPerBlock := blockSize / 64
			if msgsPerBlock < 1 {
				msgsPerBlock = 1
			}
			for {
				addr := base
				if rotate {
					blk := seq % blocksPerClient
					off := (seq / blocksPerClient % msgsPerBlock) * 64
					addr = base + uint64(blk*blockSize+off)
				}
				seq++
				t.PostSend(cqp, nic.SendWR{
					Op: nic.OpWrite, Signaled: true,
					LKey: src.LKey, LAddr: src.Base, Len: rawMsgSize,
					RKey: pool.RKey, RAddr: addr,
				})
				outstanding++
				for outstanding >= window {
					outstanding -= len(t.WaitCQ(ccq, window, 5*sim.Microsecond))
				}
			}
		})
	}
	return measureWindow(c, opts, fmt.Sprintf("inbound-write/c%d/bs%d", nClients, blockSize))
}

// runInboundUDSend measures nClients UD-sending 32 B messages to 10 server
// UD QPs whose recv rings are replenished by server threads.
func runInboundUDSend(nClients int, opts Options) rawCounters {
	c := cluster.New(cluster.Default(12))
	defer c.Close()
	srv := c.Hosts[0]
	const threads = 10
	const recvDepth = 512
	qpns := make([]uint32, threads)
	for tid := 0; tid < threads; tid++ {
		tid := tid
		cq := srv.NIC.CreateCQ()
		qp := srv.NIC.CreateQP(nic.UD, cq, cq)
		qpns[tid] = qp.QPN
		ring := srv.Mem.Register(64*recvDepth, memory.PageSize2M, memory.LocalWrite)
		var wrs []nic.RecvWR
		for r := 0; r < recvDepth; r++ {
			wrs = append(wrs, nic.RecvWR{WRID: uint64(r), LKey: ring.LKey,
				LAddr: ring.Base + uint64(r*64), Len: 64})
		}
		qp.PostRecvBatch(wrs)
		srv.Spawn(fmt.Sprintf("ud-w%d", tid), func(t *host.Thread) {
			var repost []nic.RecvWR
			for {
				cqes := t.PollCQ(cq, 32)
				if len(cqes) == 0 {
					if len(repost) > 0 {
						t.PostRecvBatch(qp, repost)
						repost = repost[:0]
					}
					cq.Sig.WaitTimeout(t.P, 5*sim.Microsecond)
					continue
				}
				for _, e := range cqes {
					repost = append(repost, nic.RecvWR{WRID: e.WRID, LKey: ring.LKey,
						LAddr: ring.Base + e.WRID*64, Len: 64})
				}
				if len(repost) >= 32 {
					t.PostRecvBatch(qp, repost)
					repost = repost[:0]
				}
			}
		})
	}
	for i := 0; i < nClients; i++ {
		i := i
		ch := c.Hosts[1+i%11]
		src := ch.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		ccq := ch.NIC.CreateCQ()
		cqp := ch.NIC.CreateQP(nic.UD, ccq, ccq)
		dst := qpns[i%threads]
		ch.Spawn(fmt.Sprintf("ud-c%d", i), func(t *host.Thread) {
			const window = 8
			outstanding := 0
			for {
				t.PostSend(cqp, nic.SendWR{
					Op: nic.OpSend, Signaled: true,
					LKey: src.LKey, LAddr: src.Base, Len: rawMsgSize,
					DstNIC: 0, DstQPN: dst,
				})
				outstanding++
				for outstanding >= window {
					outstanding -= len(t.WaitCQ(ccq, window, 5*sim.Microsecond))
				}
			}
		})
	}
	return measureWindow(c, opts, fmt.Sprintf("ud-send/c%d", nClients))
}

func clientSweep(quick bool) []int {
	if quick {
		return []int{10, 40, 150, 400}
	}
	return []int{10, 20, 40, 80, 150, 200, 400, 600, 800}
}

func runFig1b(opts Options) *Result {
	r := &Result{
		ID: "fig1b", Title: "Raw throughput of RDMA verbs (32 B messages, 10 server threads)",
		XLabel: "clients", YLabel: "Mops/s",
	}
	for _, n := range clientSweep(opts.Quick) {
		out := runOutboundWrite(n, opts)
		r.AddPoint("outbound-write", float64(n), mops(out.outWQEs, opts.Duration))
		in := runInboundWrite(n, 64, false, opts)
		r.AddPoint("inbound-write", float64(n), mops(in.inMsgs, opts.Duration))
		ud := runInboundUDSend(n, opts)
		r.AddPoint("ud-send", float64(n), mops(ud.inMsgs-ud.rnrDrops, opts.Duration))
	}
	r.Note("paper: outbound write collapses ~20→2 Mops/s as clients grow 10→800; inbound write and UD send stay flat")
	return r
}

func runFig3a(opts Options) *Result {
	r := &Result{
		ID: "fig3a", Title: "RC write throughput and PCIe read rate (server-side counters)",
		XLabel: "clients", YLabel: "Mops/s or Mevents/s",
	}
	for _, n := range clientSweep(opts.Quick) {
		out := runOutboundWrite(n, opts)
		r.AddPoint("outbound-write", float64(n), mops(out.outWQEs, opts.Duration))
		r.AddPoint("outbound-PCIeRdCur", float64(n), rate(out.pcieRdCur, opts.Duration))
		in := runInboundWrite(n, 64, false, opts)
		r.AddPoint("inbound-write", float64(n), mops(in.inMsgs, opts.Duration))
		r.AddPoint("inbound-PCIeRdCur", float64(n), rate(in.pcieRdCur, opts.Duration))
	}
	r.Note("paper: before the knee PCIe reads track outbound throughput (payload DMA); past it they exceed it (QPC/WQE refetches); inbound PCIe reads stay low")
	return r
}

func runFig3b(opts Options) *Result {
	r := &Result{
		ID: "fig3b", Title: "Inbound RC write vs message block size (400 clients × 20 blocks)",
		XLabel: "block bytes", YLabel: "Mops/s or ratio",
	}
	nClients := 400
	sizes := []int{64, 256, 1024, 2048, 4096, 8192}
	if opts.Quick {
		nClients = 200
		sizes = []int{64, 1024, 4096}
	}
	for _, bs := range sizes {
		in := runInboundWrite(nClients, bs, true, opts)
		r.AddPoint("inbound-write", float64(bs), mops(in.inMsgs, opts.Duration))
		total := in.dmaUpdates + in.dmaAllocs
		missRate := 0.0
		if total > 0 {
			missRate = float64(in.dmaAllocs) / float64(total)
		}
		r.AddPoint("l3-miss-rate", float64(bs), missRate)
		r.AddPoint("PCIeItoM", float64(bs), rate(in.pcieItoM, opts.Duration))
	}
	r.Note("paper: throughput drops ~35→<10 Mops/s once pool (block×400×20) outgrows the LLC; L3 miss rate rises accordingly")
	r.Note("l3-miss-rate proxy: fraction of DDIO writes that had to Write Allocate")
	return r
}

// Exported raw-verb measurement wrappers for `scalebench rawbench`.

// MeasureOutboundWrite returns outbound RC write throughput (Mops/s) and
// the server-side PCIe read rate (Mevents/s) for nClients connections.
func MeasureOutboundWrite(nClients int, opts Options) (tput, pcieRd float64) {
	c := runOutboundWrite(nClients, opts)
	return mops(c.outWQEs, opts.Duration), rate(c.pcieRdCur, opts.Duration)
}

// MeasureInboundWrite returns inbound RC write throughput (Mops/s) and the
// DDIO write-allocate fraction for nClients writers over blocks of
// blockSize bytes (rotated, as in Figure 3(b)).
func MeasureInboundWrite(nClients, blockSize int, opts Options) (tput, allocFrac float64) {
	c := runInboundWrite(nClients, blockSize, true, opts)
	total := c.dmaUpdates + c.dmaAllocs
	frac := 0.0
	if total > 0 {
		frac = float64(c.dmaAllocs) / float64(total)
	}
	return mops(c.inMsgs, opts.Duration), frac
}

// MeasureInboundUDSend returns inbound UD send throughput (Mops/s).
func MeasureInboundUDSend(nClients int, opts Options) float64 {
	c := runInboundUDSend(nClients, opts)
	return mops(c.inMsgs-c.rnrDrops, opts.Duration)
}
