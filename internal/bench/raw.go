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

// rawCounters are the server-side counter deltas a raw experiment reports.
type rawCounters struct {
	outWQEs    uint64
	inMsgs     uint64
	rnrDrops   uint64
	pcieRdCur  uint64
	pcieItoM   uint64
	dmaUpdates uint64
	dmaAllocs  uint64
}

// allocFrac is the fraction of DDIO writes that had to Write Allocate.
func (a rawCounters) allocFrac() float64 {
	if total := a.dmaUpdates + a.dmaAllocs; total > 0 {
		return float64(a.dmaAllocs) / float64(total)
	}
	return 0
}

// measureWindow runs warmup, snapshots, runs the measurement window, and
// returns the counter deltas at the server — warmup-window events never
// reach the reported rates. When metrics are being recorded the data
// point's registry dump is captured under label.
func measureWindow(c *cluster.Cluster, opts Options, label string) rawCounters {
	srv := c.Hosts[0]
	c.Env.RunUntil(opts.Warmup)
	nic0, bus0, llc0 := srv.NIC.Stats, srv.Bus.Snapshot(), srv.LLC.Snapshot()
	c.Env.RunUntil(opts.Warmup + opts.Duration)
	nic1, bus, llc1 := srv.NIC.Stats, srv.Bus.Snapshot().Sub(bus0), srv.LLC.Snapshot()
	opts.Metrics.Record(label, c)
	return rawCounters{
		outWQEs:    nic1.OutWQEs - nic0.OutWQEs,
		inMsgs:     nic1.InMessages - nic0.InMessages,
		rnrDrops:   nic1.RNRDrops - nic0.RNRDrops,
		pcieRdCur:  bus.PCIeRdCur,
		pcieItoM:   bus.PCIeItoM,
		dmaUpdates: llc1.DMAUpdates - llc0.DMAUpdates,
		dmaAllocs:  llc1.DMAAllocs - llc0.DMAAllocs,
	}
}

const rawMsgSize = 32

// outThreads is the number of server threads posting outbound writes.
const outThreads = 10

// outTarget is one remote sink of the outbound poster: the QP to post on
// (the shared initiator for DCT), the target's NIC and QPN for DCT, and
// the client's 4 KB slot.
type outTarget struct {
	qp     *nic.QP
	dstNIC int
	dstQPN uint32
	rkey   uint32
	raddr  uint64
}

// outSink returns client i's slot on its host ch: one sink region per
// client host, registered on first use, with a 4 KB slot per client.
func outSink(sinks []*memory.Region, ch *host.Host, i, nClients int) (rkey uint32, raddr uint64) {
	if sinks[ch.ID] == nil {
		sinks[ch.ID] = ch.Mem.Register(4096*((nClients/11)+2), memory.PageSize2M,
			memory.LocalWrite|memory.RemoteWrite)
	}
	return sinks[ch.ID].RKey, sinks[ch.ID].Base + uint64((i/11)*4096)
}

// postWindowed spawns a thread named name on h that posts next(seq) for
// seq = 0, 1, 2, … on the QP next returns, keeping window signalled WRs in
// flight on cq.
func postWindowed(h *host.Host, name string, window int, cq *nic.CQ, next func(seq int) (*nic.QP, nic.SendWR)) {
	h.Spawn(name, func(t *host.Thread) {
		for seq, outstanding := 0, 0; ; seq++ {
			qp, wr := next(seq)
			t.PostSend(qp, wr)
			outstanding++
			for outstanding >= window {
				outstanding -= len(t.WaitCQ(cq, window, 5*sim.Microsecond))
			}
		}
	})
}

// write32 is a signalled 32 B RDMA WRITE from src to raddr under rkey.
func write32(src *memory.Region, rkey uint32, raddr uint64) nic.SendWR {
	return nic.SendWR{
		Op: nic.OpWrite, Signaled: true,
		LKey: src.LKey, LAddr: src.Base, Len: rawMsgSize,
		RKey: rkey, RAddr: raddr,
	}
}

// postOutbound gives every server thread with targets a poster named
// name+tid that writes from src round-robin over its targets, 64 in flight
// on its CQ.
func postOutbound(srv *host.Host, name string, src *memory.Region, cqs []*nic.CQ, perThread [][]outTarget) {
	for tid, tgs := range perThread {
		if len(tgs) == 0 {
			continue
		}
		postWindowed(srv, fmt.Sprintf("%s%d", name, tid), 64, cqs[tid], func(seq int) (*nic.QP, nic.SendWR) {
			tg := tgs[seq%len(tgs)]
			wr := write32(src, tg.rkey, tg.raddr)
			wr.DstNIC, wr.DstQPN = tg.dstNIC, tg.dstQPN
			return tg.qp, wr
		})
	}
}

// runOutboundWrite measures the server posting 32 B RC writes to nClients
// remote QPs from 10 threads (the paper's outbound verb test).
func runOutboundWrite(nClients int, opts Options) rawCounters {
	c := opts.newCluster(12, 0)
	defer c.Close()
	srv := c.Hosts[0]
	src := srv.Mem.Register(64<<10, memory.PageSize2M, memory.LocalWrite)
	sinks := make([]*memory.Region, 12)
	perThread := make([][]outTarget, outThreads)
	cqs := make([]*nic.CQ, outThreads)
	for i := range cqs {
		cqs[i] = srv.NIC.CreateCQ()
	}
	for i := 0; i < nClients; i++ {
		ch := c.Hosts[1+i%11]
		rkey, raddr := outSink(sinks, ch, i, nClients)
		tid := i % outThreads
		sqp := srv.NIC.CreateQP(nic.RC, cqs[tid], cqs[tid])
		ccq := ch.NIC.CreateCQ()
		cqp := ch.NIC.CreateQP(nic.RC, ccq, ccq)
		if err := nic.Connect(sqp, cqp); err != nil {
			panic(err)
		}
		perThread[tid] = append(perThread[tid], outTarget{qp: sqp, rkey: rkey, raddr: raddr})
	}
	postOutbound(srv, "out-w", src, cqs, perThread)
	return measureWindow(c, opts, fmt.Sprintf("outbound-write/c%d", nClients))
}

// runInboundWrite measures nClients remote QPs each RC-writing 32 B
// messages into the server. With rotate set, writers cycle through 20
// blocks of blockSize bytes (the Figure 3(b) layout); otherwise each
// client hammers a single fixed 64 B slot.
func runInboundWrite(nClients int, blockSize int, rotate bool, opts Options) rawCounters {
	c := opts.newCluster(12, 0)
	defer c.Close()
	srv := c.Hosts[0]
	const blocksPerClient = 20
	span := blockSize * blocksPerClient
	pool := srv.Mem.Register(span*nClients+4096, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteWrite)
	for i := 0; i < nClients; i++ {
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
		msgsPerBlock := max(blockSize/64, 1)
		postWindowed(ch, fmt.Sprintf("in-c%d", i), 8, ccq, func(seq int) (*nic.QP, nic.SendWR) {
			addr := base
			if rotate {
				blk := seq % blocksPerClient
				off := (seq / blocksPerClient % msgsPerBlock) * 64
				addr = base + uint64(blk*blockSize+off)
			}
			return cqp, write32(src, pool.RKey, addr)
		})
	}
	return measureWindow(c, opts, fmt.Sprintf("inbound-write/c%d/bs%d", nClients, blockSize))
}

// runInboundUDSend measures nClients UD-sending 32 B messages to 10 server
// UD QPs whose recv rings are replenished by server threads.
func runInboundUDSend(nClients int, opts Options) rawCounters {
	c := opts.newCluster(12, 0)
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
		ch := c.Hosts[1+i%11]
		src := ch.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		ccq := ch.NIC.CreateCQ()
		cqp := ch.NIC.CreateQP(nic.UD, ccq, ccq)
		wr := nic.SendWR{
			Op: nic.OpSend, Signaled: true,
			LKey: src.LKey, LAddr: src.Base, Len: rawMsgSize,
			DstQPN: qpns[i%threads],
		}
		postWindowed(ch, fmt.Sprintf("ud-c%d", i), 8, ccq, func(int) (*nic.QP, nic.SendWR) { return cqp, wr })
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
		tput, _ := MeasureOutboundWrite(n, opts)
		r.AddPoint("outbound-write", float64(n), tput)
		in := runInboundWrite(n, 64, false, opts)
		r.AddPoint("inbound-write", float64(n), mops(in.inMsgs, opts.Duration))
		r.AddPoint("ud-send", float64(n), MeasureInboundUDSend(n, opts))
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
		tput, rd := MeasureOutboundWrite(n, opts)
		r.AddPoint("outbound-write", float64(n), tput)
		r.AddPoint("outbound-PCIeRdCur", float64(n), rd)
		in := runInboundWrite(n, 64, false, opts)
		r.AddPoint("inbound-write", float64(n), mops(in.inMsgs, opts.Duration))
		r.AddPoint("inbound-PCIeRdCur", float64(n), mops(in.pcieRdCur, opts.Duration))
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
		r.AddPoint("l3-miss-rate", float64(bs), in.allocFrac())
		r.AddPoint("PCIeItoM", float64(bs), mops(in.pcieItoM, opts.Duration))
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
	return mops(c.outWQEs, opts.Duration), mops(c.pcieRdCur, opts.Duration)
}

// MeasureInboundWrite returns inbound RC write throughput (Mops/s) and the
// DDIO write-allocate fraction for nClients writers over blocks of
// blockSize bytes (rotated, as in Figure 3(b)).
func MeasureInboundWrite(nClients, blockSize int, opts Options) (tput, allocFrac float64) {
	c := runInboundWrite(nClients, blockSize, true, opts)
	return mops(c.inMsgs, opts.Duration), c.allocFrac()
}

// MeasureInboundUDSend returns inbound UD send throughput (Mops/s).
func MeasureInboundUDSend(nClients int, opts Options) float64 {
	c := runInboundUDSend(nClients, opts)
	return mops(c.inMsgs-c.rnrDrops, opts.Duration)
}
