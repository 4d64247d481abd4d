package nic

import (
	"encoding/binary"

	"scalerpc/internal/fabric"
	"scalerpc/internal/memory"
	"scalerpc/internal/sim"
	"scalerpc/internal/telemetry"
)

// pktOp identifies a wire packet type.
type pktOp int

const (
	pktWrite pktOp = iota
	pktDCTConnect
	pktWriteImm
	pktSend
	pktReadReq
	pktAtomicReq
	pktReadResp
	pktAtomicResp
	pktAck
	pktNak
	pktRnrNak
)

func (o pktOp) isData() bool {
	switch o {
	case pktWrite, pktWriteImm, pktSend, pktReadReq, pktAtomicReq:
		return true
	}
	return false
}

// packet is the unit carried by the fabric between NICs.
type packet struct {
	op        pktOp
	transport QPType
	srcNIC    int
	srcQPN    uint32
	dstQPN    uint32
	psn       uint64

	rkey  uint32
	raddr uint64
	data  []byte
	size  int // requested length for READ

	imm      uint32
	immValid bool

	wrID     uint64
	signaled bool

	// class is the fabric traffic class (fabric.ClassData et al.), copied
	// from the originating SendWR so fault rules can target protocol roles.
	class byte

	atomicOp           Op
	compare, swap, add uint64

	status CQEStatus // for ACK/NAK error propagation

	// ownsData marks data as a pool-owned copy, recycled with the packet;
	// when false the payload aliases an inflight entry's inline buffer
	// (retired separately at ACK time). noRecycle pins the packet out of
	// the pool: fault injections that alias it across deliveries (see
	// pool.go) set it and leave the packet to the GC.
	ownsData  bool
	noRecycle bool

	// Departure state: between the engine pass that built the packet and
	// its pipelined departure (xmit; sendResp for a READ response waiting
	// out its DMA gather) the packet itself carries what a closure would
	// have captured. srcQP also takes an unreliable transport's completion.
	srcQP     *QP
	dstNIC    int
	wireBytes int
	reconnect bool
}

// outJob is one queued unit of outbound engine work.
type outJob struct {
	qp         *QP
	wr         SendWR
	inlineData []byte
	retrans    bool
	psn        uint64
}

// outKick starts the outbound engine if idle.
func (n *NIC) outKick() {
	if n.outBusy {
		return
	}
	n.outBusy = true
	n.env.At(0, n.outStepFn)
}

func (n *NIC) outStep() {
	if n.outHead >= len(n.outQ) {
		n.outQ = n.outQ[:0]
		n.outHead = 0
		n.outBusy = false
		return
	}
	job := n.outQ[n.outHead]
	n.outQ[n.outHead] = outJob{}
	n.outHead++
	occ := n.processOut(job)
	n.env.At(occ, n.outStepFn)
}

// processOut performs the state lookups and cost accounting for one WQE,
// schedules its departure (engine occupancy plus the pipelined latency of
// cache refills and the payload gather) and returns the engine occupancy.
// The departure is xmit on the built packet — a closure only on the error
// paths, which are cold.
func (n *NIC) processOut(job outJob) (occ sim.Duration) {
	qp := job.qp
	wr := job.wr
	var extraLat sim.Duration
	if qp.err != nil {
		// The QP errored while this WQE sat in the engine queue. Fresh posts
		// flush with an error CQE; retransmissions were already flushed when
		// the QP entered the error state, so they vanish silently.
		occ = n.Cfg.OutboundBaseCost
		if !job.retrans && qp.SendCQ != nil {
			n.env.At(occ, func() {
				qp.SendCQ.push(CQE{WRID: wr.WRID, QPN: qp.QPN, Op: wr.Op, Status: CQFlushError})
			})
		}
		return occ
	}
	n.Stats.OutWQEs++
	n.Stats.OutVerbs[qp.Type][wr.Op]++

	occ = n.Cfg.OutboundBaseCost
	if qp.Type == UD {
		occ += n.Cfg.OutboundUDExtra
	}

	// QP context lookup.
	if n.qpcCache.Access(uint64(qp.QPN)) {
		n.Stats.QPCHits++
	} else {
		n.Stats.QPCMisses++
		if n.trace.Enabled {
			n.trace.Emit(n.env.Now(), "qpc_evict",
				telemetry.A("nic", int64(n.id)), telemetry.A("qpn", int64(qp.QPN)))
		}
		n.bus.RecordDMARead(1)
		occ += n.Cfg.CacheMissStall
		extraLat += n.cost.DMAReadLatency - n.Cfg.CacheMissStall
	}
	// WQE fetch (the posted descriptor lives in the host-memory send queue
	// unless the NIC still holds this QP's WQE window on chip).
	if n.wqeCache.Access(uint64(qp.QPN)) {
		n.Stats.WQEHits++
	} else {
		n.Stats.WQEMisses++
		n.bus.RecordDMARead(1)
		occ += n.Cfg.CacheMissStall
		extraLat += n.cost.DMAReadLatency - n.Cfg.CacheMissStall
	}

	// Gather the payload.
	var data []byte
	ownsData := false
	hasPayload := wr.Op == OpWrite || wr.Op == OpWriteImm || wr.Op == OpSend
	if hasPayload && wr.Len > 0 {
		if job.inlineData != nil {
			// RC/DCT inline payloads stay owned by the inflight entry (they
			// are re-sent on retransmit); fire-and-forget transports hand
			// the buffer to the packet.
			data = job.inlineData
			ownsData = qp.Type == UD || qp.Type == UC
		} else {
			reg, src, err := n.mem.TranslateLocal(wr.LKey, wr.LAddr, wr.Len)
			if err != nil {
				n.env.At(occ, func() { qp.completeLocalError(wr, err) })
				return occ
			}
			occ += n.chargeMTT(reg, wr.LAddr, wr.Len)
			lines := (wr.Len + n.llc.LineSize() - 1) / n.llc.LineSize()
			n.bus.RecordDMARead(lines)
			extraLat += n.cost.DMARead(wr.Len, n.llc.LineSize())
			data = n.getBuf(wr.Len)
			copy(data, src)
			ownsData = true
		}
	}

	// Destination resolution.
	dstNIC, dstQPN := qp.remoteNIC, qp.remoteQPN
	reconnect := false
	if qp.Type == UD {
		dstNIC, dstQPN = wr.DstNIC, wr.DstQPN
	}
	if qp.Type == DCT {
		dstNIC, dstQPN = wr.DstNIC, wr.DstQPN
		var extra int64
		extra, reconnect = qp.dctPrepare(dstNIC, dstQPN)
		occ += sim.Duration(extra)
		if reconnect {
			// The connect handshake delays the data's departure (§5.1:
			// +1-3us on switches; the fabric round trip adds the rest).
			extraLat += 600
		}
	}

	pkt := n.getPacket()
	pkt.transport = qp.Type
	pkt.srcNIC = n.id
	pkt.srcQPN = qp.QPN
	pkt.dstQPN = dstQPN
	pkt.rkey = wr.RKey
	pkt.raddr = wr.RAddr
	pkt.data = data
	pkt.ownsData = ownsData
	pkt.size = wr.Len
	pkt.imm = wr.Imm
	pkt.wrID = wr.WRID
	pkt.signaled = wr.Signaled
	pkt.compare = wr.Compare
	pkt.swap = wr.Swap
	pkt.add = wr.Add
	pkt.atomicOp = wr.Op
	pkt.class = wr.Class
	pkt.srcQP = qp
	pkt.dstNIC = dstNIC
	pkt.reconnect = reconnect
	wireBytes := len(data)
	switch wr.Op {
	case OpWrite:
		pkt.op = pktWrite
	case OpWriteImm:
		pkt.op = pktWriteImm
		pkt.immValid = true
	case OpSend:
		pkt.op = pktSend
		pkt.immValid = wr.Imm != 0
	case OpRead:
		pkt.op = pktReadReq
		wireBytes = 16
	case OpCompSwap, OpFetchAdd:
		pkt.op = pktAtomicReq
		wireBytes = 24
	}

	// RC/DCT reliability: assign a PSN and track the request until its ACK
	// or response arrives.
	if qp.Type == RC || qp.Type == DCT {
		if job.retrans {
			pkt.psn = job.psn
		} else {
			pkt.psn = qp.sendPSN
			qp.sendPSN++
			needResp := wr.Op == OpRead || wr.Op == OpCompSwap || wr.Op == OpFetchAdd
			qp.inflight = append(qp.inflight, inflightWR{psn: pkt.psn, wr: wr, needResp: needResp, inline: job.inlineData})
			n.armTimer(qp)
		}
	}

	pkt.wireBytes = wireBytes
	n.env.AtArg(occ+extraLat, n.xmitFn, pkt)
	return occ
}

// xmit puts a packet built by processOut on the wire; arg is the *packet.
// Everything it needs rides in the packet (the WQE's id, opcode, length and
// signaled flag are wire fields already), so the per-WQE departure costs no
// closure.
func (n *NIC) xmit(arg any) {
	pkt := arg.(*packet)
	qp := pkt.srcQP
	if pkt.reconnect {
		cn := n.ctl(pktDCTConnect, DCT, pkt.dstQPN, 0)
		cn.srcNIC, cn.srcQPN = n.id, qp.QPN
		cm := n.getMsg()
		cm.Src, cm.Dst, cm.Bytes, cm.Payload = n.id, pkt.dstNIC, dctConnectBytes, cn
		n.fab.Send(cm)
	}
	m := n.getMsg()
	m.Src, m.Dst, m.Bytes, m.Payload = n.id, pkt.dstNIC, pkt.wireBytes, pkt
	m.Class = pkt.class
	n.fab.Send(m)
	// Unreliable transports complete at transmission.
	if pkt.signaled && (qp.Type == UD || qp.Type == UC) {
		qp.SendCQ.push(CQE{WRID: pkt.wrID, QPN: qp.QPN, Op: pkt.atomicOp, Status: CQOK, ByteLen: pkt.size})
	}
}

func (qp *QP) completeLocalError(wr SendWR, err error) {
	qp.err = err
	qp.state = QPErr
	if qp.SendCQ != nil {
		qp.SendCQ.push(CQE{WRID: wr.WRID, QPN: qp.QPN, Op: wr.Op, Status: CQLocalError})
	}
}

// deliver is the fabric receive handler.
func (n *NIC) deliver(msg *fabric.Message) {
	pkt := msg.Payload.(*packet)
	mangled := msg.Mangled
	if msg.NoRecycle {
		// This message is delivered again (Duplicate verdict): the packet
		// and its payload stay aliased, so pin them out of the pool. The
		// message itself is not recycled either.
		pkt.noRecycle = true
	} else {
		msg.Payload = nil
		n.putMsg(msg)
	}
	if mangled && len(pkt.data) > 0 {
		// Past-ICRC corruption: the damage lands in this delivery only, so
		// work on copies — the sender's retransmit path and any duplicate
		// delivery alias the original packet and its data. The private copy
		// re-enters the pool normally after processing.
		cp := n.getPacket()
		*cp = *pkt
		cp.data = n.getBuf(len(pkt.data))
		copy(cp.data, pkt.data)
		cp.data[len(cp.data)/2] ^= 0x40
		cp.ownsData = true
		cp.noRecycle = false
		pkt = cp
		n.Stats.PayloadMangles++
	}
	if pkt.transport == UD && n.Cfg.UDLossRate > 0 && n.rng != nil && n.rng.Float64() < n.Cfg.UDLossRate {
		n.Stats.UDDrops++
		n.freePacket(pkt)
		return
	}
	if n.dropNextData > 0 && pkt.transport == RC && pkt.op.isData() {
		n.dropNextData--
		n.freePacket(pkt)
		return
	}
	n.inQ = append(n.inQ, pkt)
	n.inKick()
}

func (n *NIC) inKick() {
	if n.inBusy {
		return
	}
	n.inBusy = true
	n.env.At(0, n.inStepFn)
}

func (n *NIC) inStep() {
	if n.inHead >= len(n.inQ) {
		n.inQ = n.inQ[:0]
		n.inHead = 0
		n.inBusy = false
		return
	}
	pkt := n.inQ[n.inHead]
	n.inQ[n.inHead] = nil
	n.inHead++
	// The engine is serial: the next packet is not looked at until inDone
	// has committed this one, so its pending commit lives in the NIC rather
	// than in a closure per packet.
	var occ sim.Duration
	occ, n.inAct = n.processIn(pkt)
	n.inPkt = pkt
	n.env.At(occ, n.inDoneFn)
}

// inDone fires at the end of a packet's engine occupancy: it commits the
// packet's effects, recycles it, and turns to the next one.
func (n *NIC) inDone() {
	pkt := n.inPkt
	n.commitIn(pkt, &n.inAct)
	n.inPkt, n.inAct = nil, inAct{}
	// The packet's effects are committed; recycle it (freePacket honors the
	// noRecycle pin set by fault paths like torn writes).
	n.freePacket(pkt)
	n.inStep()
}

// touchQPC models requester-side completion processing: ACKs and READ
// responses need the QP context (PSN window, completion state), so they
// occupy QPC cache entries and evict others — without stalling the inbound
// pipeline. This is why a server answering hundreds of RC clients thrashes
// its QPC cache even though plain inbound writes do not touch it (§2.3).
func (n *NIC) touchQPC(qpn uint32) {
	if n.qpcCache.Access(uint64(qpn)) {
		n.Stats.QPCTouchHits++
	} else {
		n.Stats.QPCTouchMisses++
		n.bus.RecordDMARead(1)
	}
}

// allocStall converts a DDIO write-allocate count into inbound-engine
// occupancy. Allocation stalls are capped: bulk sequential writes stream
// their allocations (the NIC keeps a bounded window of them in flight), so
// only small scattered writes feel the full per-line penalty — which is
// exactly the Figure 3(b) regime.
func allocStall(allocs int, penalty sim.Duration) sim.Duration {
	const cap = 16
	if allocs > cap {
		allocs = cap
	}
	return sim.Duration(allocs) * penalty
}

// sendCtl transmits a small control packet (ACK/NAK/responses) directly,
// bypassing the outbound engine: responders generate these in dedicated
// hardware datapaths.
func (n *NIC) sendCtl(dstNIC int, pkt *packet, wireBytes int) {
	pkt.srcNIC = n.id
	m := n.getMsg()
	m.Src, m.Dst, m.Bytes, m.Payload = n.id, dstNIC, wireBytes, pkt
	n.fab.Send(m)
}

// rcCheck outcomes: the packet is next in sequence (accepted, PSN
// advanced), a duplicate of an already-delivered one, or ahead of a gap.
const (
	rcAccepted = iota
	rcDuplicate
	rcGap
)

// rcCheck performs responder-side PSN sequencing for an RC data packet.
// Gaps are NAKed once per episode here; duplicate handling is op-specific
// (writes/sends re-ACK, reads re-execute, atomics replay) and left to the
// caller.
func (n *NIC) rcCheck(qp *QP, pkt *packet) int {
	if pkt.psn == qp.expectPSN {
		qp.expectPSN++
		qp.nakSent = false
		return rcAccepted
	}
	if pkt.psn > qp.expectPSN {
		// Sequence gap: drop and NAK once per gap.
		if !qp.nakSent {
			qp.nakSent = true
			n.Stats.NAKs++
			n.sendCtl(pkt.srcNIC, n.ctl(pktNak, RC, pkt.srcQPN, qp.expectPSN), 0)
		}
		return rcGap
	}
	return rcDuplicate
}

// reAck acknowledges a duplicate of an already-delivered packet so the
// requester (whose ACK was lost) can advance its inflight window.
func (n *NIC) reAck(qp *QP, pkt *packet) {
	n.sendCtl(pkt.srcNIC, n.ctl(pktAck, RC, pkt.srcQPN, pkt.psn), 0)
}

// inKind selects what commitIn does for a processed packet.
type inKind uint8

const (
	inNone         inKind = iota // nothing to commit (dropped, duplicate, unknown QP)
	inRemoteError                // NAK a remote access violation back to the requester
	inWrite                      // land a WRITE / WRITE_WITH_IMM payload
	inSendError                  // complete the consumed recv WQE with an error
	inSend                       // land a SEND payload in the consumed recv WQE
	inReadReq                    // gather and return READ data
	inAtomicReplay               // answer a duplicate atomic from the replay cache
	inAtomic                     // execute a CAS / FETCH_ADD
	inAckNak                     // requester side: ACK, sequence-gap NAK or receiver-not-ready NAK
	inResp                       // requester side: ATOMIC response, or READ data with nowhere to land
	inRespData                   // requester side: READ response data into the WQE's buffer
)

// inAct is the commit half of one inbound packet: what processIn decided
// during the lookups, applied by commitIn at the end of the packet's engine
// occupancy. It holds what the per-packet commit closure used to capture.
type inAct struct {
	kind   inKind
	qp     *QP
	rkey   uint32       // region whose watchers the commit wakes
	mem    []byte       // translated host memory the commit reads or writes
	wrID   uint64       // inSend, inSendError: the consumed recv WQE
	status CQEStatus    // inSendError
	old    uint64       // inAtomicReplay: the cached result
	dmaLat sim.Duration // inReadReq: gather latency before the response leaves
}

// processIn handles one arrived packet, returning engine occupancy and the
// action that commits its effects at the end of that occupancy.
func (n *NIC) processIn(pkt *packet) (occ sim.Duration, act inAct) {
	n.Stats.InMessages++
	qp := n.qps[pkt.dstQPN]
	if qp != nil && pkt.op.isData() && qp.state < QPRTR {
		// Data arriving before the QP reached RTR lands in the half-open
		// window of the connect handshake and is undeliverable — exactly as
		// if the QPN were unknown.
		qp = nil
	}

	switch pkt.op {
	case pktDCTConnect:
		// Responder-side context creation (§5.1).
		return dctAcceptCost, act

	case pktWrite, pktWriteImm:
		occ = n.Cfg.InboundWriteCost
		if qp == nil {
			return occ, act
		}
		if pkt.transport == RC {
			switch n.rcCheck(qp, pkt) {
			case rcGap:
				return occ, act
			case rcDuplicate:
				n.reAck(qp, pkt)
				return occ, act
			}
		}
		reg, dst, err := n.mem.TranslateRemote(pkt.rkey, pkt.raddr, len(pkt.data), true)
		if err != nil {
			return occ, inAct{kind: inRemoteError}
		}
		occ += n.chargeMTT(reg, pkt.raddr, len(pkt.data))
		_, allocs := n.llc.DMAWrite(pkt.raddr, uint64(len(pkt.data)))
		n.bus.RecordDeviceWrite(pkt.raddr, uint64(len(pkt.data)), n.llc.LineSize(), allocs)
		occ += allocStall(allocs, n.cost.WriteAllocatePenalty)
		return occ, inAct{kind: inWrite, qp: qp, rkey: reg.RKey, mem: dst}

	case pktSend:
		occ = n.Cfg.InboundSendCost
		if qp == nil {
			return occ, act
		}
		if pkt.transport == RC {
			if pkt.psn == qp.expectPSN && qp.RecvQueueLen() == 0 {
				// Receiver not ready: leave the PSN window untouched and
				// NAK so the requester backs off and retransmits (real RC
				// never discards an in-sequence send silently).
				n.Stats.RNRDrops++
				n.sendCtl(pkt.srcNIC, n.ctl(pktRnrNak, RC, pkt.srcQPN, pkt.psn), 0)
				return occ, act
			}
			switch n.rcCheck(qp, pkt) {
			case rcGap:
				return occ, act
			case rcDuplicate:
				n.reAck(qp, pkt)
				return occ, act
			}
		}
		rwr, ok := qp.popRecv()
		if !ok {
			n.Stats.RNRDrops++
			return occ, act
		}
		// Fetch the recv WQE descriptor from host memory.
		n.bus.RecordDMARead(1)
		if len(pkt.data) > rwr.Len {
			return occ, inAct{kind: inSendError, qp: qp, wrID: rwr.WRID, status: CQLengthError}
		}
		reg, dst, err := n.mem.TranslateLocal(rwr.LKey, rwr.LAddr, len(pkt.data))
		if err != nil {
			return occ, inAct{kind: inSendError, qp: qp, wrID: rwr.WRID, status: CQLocalError}
		}
		occ += n.chargeMTT(reg, rwr.LAddr, len(pkt.data))
		_, allocs := n.llc.DMAWrite(rwr.LAddr, uint64(len(pkt.data)))
		n.bus.RecordDeviceWrite(rwr.LAddr, uint64(len(pkt.data)), n.llc.LineSize(), allocs)
		occ += allocStall(allocs, n.cost.WriteAllocatePenalty)
		return occ, inAct{kind: inSend, qp: qp, rkey: reg.RKey, mem: dst, wrID: rwr.WRID}

	case pktReadReq:
		occ = n.Cfg.InboundReadCost
		if qp == nil {
			return occ, act
		}
		if pkt.transport == RC {
			// Duplicate READs (their response was lost) are re-executed:
			// reads are idempotent and the requester still needs the data.
			if n.rcCheck(qp, pkt) == rcGap {
				return occ, act
			}
		}
		reg, src, err := n.mem.TranslateRemote(pkt.rkey, pkt.raddr, pkt.size, false)
		if err != nil {
			return occ, inAct{kind: inRemoteError}
		}
		occ += n.chargeMTT(reg, pkt.raddr, pkt.size)
		lines := (pkt.size + n.llc.LineSize() - 1) / n.llc.LineSize()
		n.bus.RecordDMARead(lines)
		return occ, inAct{kind: inReadReq, mem: src, dmaLat: n.cost.DMARead(pkt.size, n.llc.LineSize())}

	case pktAtomicReq:
		occ = n.Cfg.InboundReadCost + n.Cfg.AtomicCost
		if qp == nil {
			return occ, act
		}
		if pkt.transport == RC {
			switch n.rcCheck(qp, pkt) {
			case rcGap:
				return occ, act
			case rcDuplicate:
				// Atomics are not idempotent: replay the cached result
				// instead of re-executing.
				if old, ok := qp.replayAtomic(pkt.psn); ok {
					n.Stats.AtomicReplays++
					return occ, inAct{kind: inAtomicReplay, old: old}
				}
				return occ, act
			}
		}
		reg, buf, err := n.mem.TranslateRemoteOp(pkt.rkey, pkt.raddr, 8, memory.RemoteOpAtomic)
		if err != nil {
			return occ, inAct{kind: inRemoteError}
		}
		occ += n.chargeMTT(reg, pkt.raddr, 8)
		n.bus.RecordDMARead(1)
		n.Stats.AtomicOps++
		return occ, inAct{kind: inAtomic, qp: qp, rkey: reg.RKey, mem: buf}

	case pktAck, pktNak, pktRnrNak:
		occ = n.Cfg.InboundAckCost
		if qp == nil {
			return occ, act
		}
		n.touchQPC(pkt.dstQPN)
		return occ, inAct{kind: inAckNak, qp: qp}

	case pktReadResp, pktAtomicResp:
		occ = n.Cfg.InboundWriteCost
		if qp == nil {
			return occ, act
		}
		n.touchQPC(pkt.dstQPN)
		act = inAct{kind: inResp, qp: qp}
		// DMA the returned data into the original WQE's local buffer.
		if idx := qp.findInflight(pkt.psn); idx >= 0 {
			wr := qp.inflight[idx].wr
			if pkt.op == pktReadResp && wr.Len > 0 {
				reg, dst, err := n.mem.TranslateLocal(wr.LKey, wr.LAddr, len(pkt.data))
				if err == nil {
					occ += n.chargeMTT(reg, wr.LAddr, len(pkt.data))
					_, allocs := n.llc.DMAWrite(wr.LAddr, uint64(len(pkt.data)))
					n.bus.RecordDeviceWrite(wr.LAddr, uint64(len(pkt.data)), n.llc.LineSize(), allocs)
					occ += allocStall(allocs, n.cost.WriteAllocatePenalty)
					act.kind, act.rkey, act.mem = inRespData, reg.RKey, dst
				}
			}
		}
		return occ, act
	}
	return 1, act
}

// commitIn applies a processed packet's effects.
func (n *NIC) commitIn(pkt *packet, a *inAct) {
	qp := a.qp
	switch a.kind {
	case inRemoteError:
		n.remoteError(pkt)

	case inWrite:
		if n.Cfg.TornWriteDelay > 0 && len(pkt.data) > 1 {
			// Increasing-address-order visibility: all but the final byte
			// now, the final byte later. The delayed closure keeps using
			// pkt.data, so the packet must not re-enter the pool when this
			// commit returns.
			pkt.noRecycle = true
			dst, rkey := a.mem, a.rkey
			last := len(pkt.data) - 1
			copy(dst[:last], pkt.data[:last])
			n.wakeWatches(rkey) // pollers may observe the partial state
			n.env.At(n.Cfg.TornWriteDelay, func() {
				dst[last] = pkt.data[last]
				n.finishWrite(pkt, qp, rkey)
			})
			return
		}
		copy(a.mem, pkt.data)
		n.finishWrite(pkt, qp, a.rkey)

	case inSendError:
		qp.RecvCQ.push(CQE{WRID: a.wrID, QPN: qp.QPN, Op: OpSend, Status: a.status,
			SrcNIC: pkt.srcNIC, SrcQPN: pkt.srcQPN})

	case inSend:
		copy(a.mem, pkt.data)
		qp.RecvCQ.push(CQE{
			WRID: a.wrID, QPN: qp.QPN, Op: OpSend, Status: CQOK,
			ByteLen: len(pkt.data), Imm: pkt.imm, ImmValid: pkt.immValid,
			SrcNIC: pkt.srcNIC, SrcQPN: pkt.srcQPN,
		})
		n.wakeWatches(a.rkey)
		n.ackData(pkt)

	case inReadReq:
		resp := n.ctl(pktReadResp, pkt.transport, pkt.srcQPN, pkt.psn)
		resp.data = n.getBuf(len(a.mem))
		copy(resp.data, a.mem)
		resp.ownsData = true
		resp.wrID, resp.signaled = pkt.wrID, pkt.signaled
		resp.dstNIC = pkt.srcNIC
		n.env.AtArg(a.dmaLat, n.sendRespFn, resp)

	case inAtomicReplay:
		n.atomicResp(pkt, a.old)

	case inAtomic:
		buf := a.mem
		old := binary.LittleEndian.Uint64(buf)
		switch pkt.atomicOp {
		case OpCompSwap:
			if old == pkt.compare {
				binary.LittleEndian.PutUint64(buf, pkt.swap)
			}
		case OpFetchAdd:
			binary.LittleEndian.PutUint64(buf, old+pkt.add)
		}
		_, allocs := n.llc.DMAWrite(pkt.raddr, 8)
		n.bus.RecordDeviceWrite(pkt.raddr, 8, n.llc.LineSize(), allocs)
		n.wakeWatches(a.rkey)
		if pkt.transport == RC {
			qp.rememberAtomic(pkt.psn, old)
		}
		n.atomicResp(pkt, old)

	case inAckNak:
		switch pkt.op {
		case pktAck:
			qp.handleAck(pkt)
		case pktNak:
			n.handleNak(qp, pkt)
		case pktRnrNak:
			n.handleRnrNak(qp, pkt)
		}

	case inRespData:
		copy(a.mem, pkt.data)
		n.wakeWatches(a.rkey)
		qp.handleResp(pkt)
	case inResp:
		qp.handleResp(pkt)
	}
}

// finishWrite completes an inbound WRITE once its last byte has landed:
// the immediate's recv completion, the pollers' wake-up and the ACK.
func (n *NIC) finishWrite(pkt *packet, qp *QP, rkey uint32) {
	if pkt.op == pktWriteImm {
		if wr, ok := qp.popRecv(); ok {
			qp.RecvCQ.push(CQE{
				WRID: wr.WRID, QPN: qp.QPN, Op: OpWriteImm, Status: CQOK,
				ByteLen: len(pkt.data), Imm: pkt.imm, ImmValid: true,
				SrcNIC: pkt.srcNIC, SrcQPN: pkt.srcQPN,
			})
		} else {
			n.Stats.RNRDrops++
		}
	}
	n.wakeWatches(rkey)
	n.ackData(pkt)
}

// ackData acknowledges a committed data packet on the reliable transports.
func (n *NIC) ackData(pkt *packet) {
	if pkt.transport == RC || pkt.transport == DCT {
		n.sendCtl(pkt.srcNIC, n.ctl(pktAck, pkt.transport, pkt.srcQPN, pkt.psn), 0)
	}
}

// atomicResp returns an atomic's prior value to the requester.
func (n *NIC) atomicResp(pkt *packet, old uint64) {
	resp := n.ctl(pktAtomicResp, pkt.transport, pkt.srcQPN, pkt.psn)
	resp.wrID, resp.signaled, resp.compare = pkt.wrID, pkt.signaled, old
	n.sendCtl(pkt.srcNIC, resp, 8)
}

// sendResp transmits a READ response once its DMA gather has elapsed; arg
// is the response *packet, which carries its own destination.
func (n *NIC) sendResp(arg any) {
	resp := arg.(*packet)
	n.sendCtl(resp.dstNIC, resp, len(resp.data))
}

// remoteError reports a remote access violation back to an RC requester
// (UC violations are silently dropped — no reverse channel).
func (n *NIC) remoteError(pkt *packet) {
	if pkt.transport != RC {
		return
	}
	resp := n.ctl(pktAck, RC, pkt.srcQPN, pkt.psn)
	resp.status = CQRemoteAccessError
	n.sendCtl(pkt.srcNIC, resp, 0)
}

// handleAck completes inflight WQEs with psn ≤ acked psn.
func (qp *QP) handleAck(pkt *packet) {
	if pkt.status != CQOK {
		qp.err = qp.nic.errorf("remote access error on %v (psn %d)", qp.Type, pkt.psn)
		qp.state = QPErr
		qp.nic.Stats.QPErrors++
		qp.cancelTimer()
		// Complete the offending WQE with an error. The entry's inline
		// buffer is NOT recycled: an aliased retransmitted copy may still
		// be travelling the fabric (error paths leave buffers to the GC).
		if idx := qp.findInflight(pkt.psn); idx >= 0 {
			wr := qp.inflight[idx].wr
			qp.inflight = append(qp.inflight[:idx], qp.inflight[idx+1:]...)
			if qp.SendCQ != nil {
				qp.SendCQ.push(CQE{WRID: wr.WRID, QPN: qp.QPN, Op: wr.Op, Status: pkt.status})
			}
		}
		return
	}
	popped := 0
	for popped < len(qp.inflight) {
		f := qp.inflight[popped]
		if f.psn > pkt.psn || f.needResp {
			break
		}
		popped++
		// The ACK proves the receiver committed this payload; any aliased
		// retransmitted copy still in flight fails the PSN check without
		// touching the data, so the inline buffer can retire now.
		if f.inline != nil {
			qp.nic.putBuf(f.inline)
		}
		if f.wr.Signaled {
			qp.SendCQ.push(CQE{WRID: f.wr.WRID, QPN: qp.QPN, Op: f.wr.Op, Status: CQOK, ByteLen: f.wr.Len})
		}
	}
	if popped > 0 {
		qp.popInflight(popped)
		qp.noteProgress()
	}
}

// handleResp completes a READ/ATOMIC and everything before it.
func (qp *QP) handleResp(pkt *packet) {
	popped := 0
	for popped < len(qp.inflight) {
		f := qp.inflight[popped]
		if f.psn > pkt.psn {
			break
		}
		popped++
		if f.inline != nil {
			qp.nic.putBuf(f.inline)
		}
		if f.psn == pkt.psn {
			if f.wr.Signaled {
				op := f.wr.Op
				qp.SendCQ.push(CQE{
					WRID: f.wr.WRID, QPN: qp.QPN, Op: op, Status: CQOK,
					ByteLen: len(pkt.data), AtomicOld: pkt.compare,
				})
			}
			break
		}
		if f.wr.Signaled {
			qp.SendCQ.push(CQE{WRID: f.wr.WRID, QPN: qp.QPN, Op: f.wr.Op, Status: CQOK, ByteLen: f.wr.Len})
		}
	}
	if popped > 0 {
		qp.popInflight(popped)
		qp.noteProgress()
	}
}

// popInflight removes the first k inflight entries, compacting in place so
// the slice keeps its backing array (the old head-reslice leaked capacity
// and forced a fresh allocation on every later post).
func (qp *QP) popInflight(k int) {
	m := copy(qp.inflight, qp.inflight[k:])
	tail := qp.inflight[m:]
	for i := range tail {
		tail[i] = inflightWR{}
	}
	qp.inflight = qp.inflight[:m]
}

// findInflight returns the index of the inflight entry with the given psn.
func (qp *QP) findInflight(psn uint64) int {
	for i, f := range qp.inflight {
		if f.psn == psn {
			return i
		}
	}
	return -1
}

// handleNak retransmits all inflight WQEs at or after the NAKed psn.
func (n *NIC) handleNak(qp *QP, pkt *packet) {
	if qp.err != nil {
		return
	}
	n.retransmitFrom(qp, pkt.psn)
	qp.cancelTimer()
	n.armTimer(qp)
}

// handleRnrNak backs off and replays after the responder reported an empty
// receive queue. The responder left its PSN window untouched, so the replay
// starts from the NAKed packet.
func (n *NIC) handleRnrNak(qp *QP, pkt *packet) {
	if qp.err != nil {
		return
	}
	n.Stats.RNRNaks++
	qp.rnrRetries++
	if qp.rnrRetries > n.Cfg.rnrRetryLimit() {
		n.enterQPError(qp, n.errorf("RNR retry count exceeded on QPN %d (peer recv queue empty)", qp.QPN), CQRNRRetryExceeded)
		return
	}
	qp.cancelTimer() // hold the retransmit timeout during the backoff
	psn := pkt.psn
	gen := qp.timerGen
	n.env.At(n.Cfg.rnrTimeout(), func() {
		if gen != qp.timerGen || qp.err != nil {
			return
		}
		n.retransmitFrom(qp, psn)
		n.armTimer(qp)
	})
}

// retransmitFrom rebuilds outbound jobs for every inflight WQE at or after
// psn (go-back-N) and queues them ahead of new work, preserving PSN order.
func (n *NIC) retransmitFrom(qp *QP, psn uint64) {
	jobs := n.retransScratch[:0]
	for _, f := range qp.inflight {
		if f.psn >= psn {
			n.Stats.Retransmits++
			n.Stats.QPRetransmits++
			jobs = append(jobs, outJob{qp: qp, wr: f.wr, inlineData: f.inline, retrans: true, psn: f.psn})
		}
	}
	n.retransScratch = jobs[:0]
	if len(jobs) == 0 {
		return
	}
	// Splice jobs ahead of the unprocessed tail in place: outQ becomes
	// jobs ++ outQ[outHead:], reusing the backing array when it fits.
	tail := n.outQ[n.outHead:]
	need := len(jobs) + len(tail)
	if cap(n.outQ) >= need {
		old := len(n.outQ)
		q := n.outQ[:need]
		copy(q[len(jobs):], tail) // overlap-safe shift
		copy(q, jobs)
		for i := need; i < old; i++ {
			n.outQ[i] = outJob{}
		}
		n.outQ = q
	} else {
		q := make([]outJob, 0, need*2)
		q = append(q, jobs...)
		q = append(q, tail...)
		n.outQ = q
	}
	n.outHead = 0
	n.outKick()
}

// armTimer schedules the retransmit timeout for the oldest inflight WQE.
// Disabled unless Config.RetransmitTimeout is positive (the default fabric is
// lossless, so the timer would only add events). Each arm supersedes any
// previous timer via the generation counter.
func (n *NIC) armTimer(qp *QP) {
	if n.Cfg.RetransmitTimeout <= 0 || qp.err != nil || len(qp.inflight) == 0 {
		return
	}
	qp.timerGen++
	gen := qp.timerGen
	n.env.At(n.Cfg.RetransmitTimeout, func() { n.onTimeout(qp, gen) })
}

// onTimeout fires when the oldest inflight WQE went unacknowledged for a full
// RetransmitTimeout: go-back-N from the start of the window, or give up and
// error the QP once the retry budget is spent.
func (n *NIC) onTimeout(qp *QP, gen uint64) {
	if gen != qp.timerGen || qp.err != nil || len(qp.inflight) == 0 {
		return
	}
	qp.retries++
	if qp.retries > n.Cfg.retryLimit() {
		n.enterQPError(qp, n.errorf("RC retry count exceeded on QPN %d (peer unreachable)", qp.QPN), CQRetryExceeded)
		return
	}
	n.retransmitFrom(qp, qp.inflight[0].psn)
	n.armTimer(qp)
}

// enterQPError transitions the QP to the error state: the oldest inflight WQE
// completes with the given status, the rest flush with CQFlushError, and all
// further posts are rejected until the QP is recreated.
func (n *NIC) enterQPError(qp *QP, err error, status CQEStatus) {
	if qp.err != nil {
		return
	}
	qp.err = err
	qp.state = QPErr
	n.Stats.QPErrors++
	qp.cancelTimer()
	for i, f := range qp.inflight {
		st := status
		if i > 0 {
			st = CQFlushError
		}
		if qp.SendCQ != nil {
			qp.SendCQ.push(CQE{WRID: f.wr.WRID, QPN: qp.QPN, Op: f.wr.Op, Status: st})
		}
	}
	qp.inflight = nil
	if n.trace.Enabled {
		n.trace.Emit(n.env.Now(), "qp_error",
			telemetry.A("nic", int64(n.id)), telemetry.A("qpn", int64(qp.QPN)))
	}
}

// flushQP completes every outstanding WQE — unacknowledged sends and posted
// receives — with CQFlushError: the error-state path, extended to teardown,
// so DestroyQP and the RESET transition cannot strand completions.
func (n *NIC) flushQP(qp *QP) {
	qp.cancelTimer()
	for _, f := range qp.inflight {
		if qp.SendCQ != nil {
			qp.SendCQ.push(CQE{WRID: f.wr.WRID, QPN: qp.QPN, Op: f.wr.Op, Status: CQFlushError})
		}
	}
	qp.inflight = nil
	for {
		wr, ok := qp.popRecv()
		if !ok {
			break
		}
		if qp.RecvCQ != nil {
			qp.RecvCQ.push(CQE{WRID: wr.WRID, QPN: qp.QPN, Op: OpSend, Status: CQFlushError})
		}
	}
}
