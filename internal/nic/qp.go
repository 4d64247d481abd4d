package nic

import (
	"errors"
	"fmt"

	"scalerpc/internal/memory"
	"scalerpc/internal/sim"
)

// QPType selects the transport mode of a queue pair.
type QPType int

// Transport modes (Table 1 of the paper).
const (
	RC        QPType = iota // reliable connection
	UC                      // unreliable connection
	UD                      // unreliable datagram
	DCT                     // dynamically connected transport (initiator)
	DCTTarget               // dynamically connected transport (passive target)
)

func (t QPType) String() string {
	switch t {
	case RC:
		return "RC"
	case UC:
		return "UC"
	case UD:
		return "UD"
	case DCT:
		return "DCT"
	case DCTTarget:
		return "DCT_TGT"
	}
	return "?"
}

// Op is a verb opcode.
type Op int

// Verb opcodes.
const (
	OpWrite Op = iota
	OpWriteImm
	OpSend
	OpRead
	OpCompSwap
	OpFetchAdd
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpSend:
		return "SEND"
	case OpRead:
		return "READ"
	case OpCompSwap:
		return "CMP_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	}
	return "?"
}

// Errors returned by the posting APIs.
var (
	ErrVerbUnsupported  = errors.New("nic: verb not supported in this mode")
	ErrMTU              = errors.New("nic: message exceeds transport MTU")
	ErrNotConnected     = errors.New("nic: QP not in RTS")
	ErrInlineTooLarge   = errors.New("nic: inline payload exceeds MaxInline")
	ErrQPError          = errors.New("nic: QP in error state")
	ErrAlreadyConnected = errors.New("nic: QP already connected (RESET required)")
	ErrBadTransition    = errors.New("nic: invalid QP state transition")
)

// QPState is the queue pair state machine (RESET→INIT→RTR→RTS, plus the
// terminal error state). Connected transports (RC/UC) are created in RESET
// and must be walked to RTS — by the in-band ctrlplane handshake, which
// charges the modeled ModifyQP latencies, or by the Connect test backdoor.
// Datagram transports (UD/DCT) are created directly in RTS.
type QPState int

// QP states, in transition order.
const (
	QPReset QPState = iota
	QPInit
	QPRTR
	QPRTS
	QPErr
)

func (s QPState) String() string {
	switch s {
	case QPReset:
		return "RESET"
	case QPInit:
		return "INIT"
	case QPRTR:
		return "RTR"
	case QPRTS:
		return "RTS"
	case QPErr:
		return "ERR"
	}
	return "?"
}

// ModifyAttr carries the connection attributes a ModifyQP transition
// installs: the peer's address and initial PSN (consumed by the RTR
// transition on connected transports) and the local initial send PSN
// (consumed by RTS).
type ModifyAttr struct {
	RemoteNIC int
	RemoteQPN uint32
	RemotePSN uint64 // peer's initial send PSN → our expected PSN (RTR)
	LocalPSN  uint64 // our initial send PSN (RTS)
}

// SendWR is a send work request (single scatter/gather element).
type SendWR struct {
	WRID     uint64
	Op       Op
	Signaled bool

	// Local buffer. For Inline posts the payload is captured at post time
	// (no DMA read); otherwise the NIC gathers it during processing.
	LKey   uint32
	LAddr  uint64
	Len    int
	Inline bool

	// Remote target for one-sided verbs.
	RKey  uint32
	RAddr uint64

	// Imm carries the immediate value for OpWriteImm (and optionally
	// OpSend).
	Imm uint32

	// UD routing (address handle): ignored on connected QPs.
	DstNIC int
	DstQPN uint32

	// Atomic operands (OpCompSwap: Compare/Swap; OpFetchAdd: Add).
	Compare, Swap, Add uint64

	// Class is the fabric traffic class (fabric.ClassData et al.),
	// propagated onto every wire packet this WR produces so fault rules
	// can target protocol roles (e.g. keepalive-only loss).
	Class byte
}

// RecvWR is a receive work request.
type RecvWR struct {
	WRID  uint64
	LKey  uint32
	LAddr uint64
	Len   int
}

// CQEStatus reports completion status.
type CQEStatus int

// Completion statuses.
const (
	CQOK CQEStatus = iota
	CQLocalError
	CQRemoteAccessError
	CQLengthError
	// CQRetryExceeded flushes a WQE whose retransmit timer fired more than
	// Config.RetryCount times with no acknowledgement (the peer is dead or
	// the link is down); the QP transitions to the error state.
	CQRetryExceeded
	// CQRNRRetryExceeded flushes a WQE after the peer answered RNR NAK more
	// than Config.RNRRetryCount times (its receive queue stayed empty).
	CQRNRRetryExceeded
	// CQFlushError flushes a WQE posted before, but processed after, the
	// QP entered the error state.
	CQFlushError
)

// CQE is a completion queue entry.
type CQE struct {
	WRID     uint64
	QPN      uint32
	Op       Op
	Status   CQEStatus
	ByteLen  int
	Imm      uint32
	ImmValid bool
	// SrcNIC/SrcQPN identify the sender for recv completions (UD needs
	// them to address replies).
	SrcNIC int
	SrcQPN uint32
	// Atomic result (old value) for atomic completions.
	AtomicOld uint64
}

// CQ is a completion queue. CQEs are DMA-written by the NIC into a ring in
// host memory (accounted against the LLC and PCIe counters); software
// retrieves them with Poll.
type CQ struct {
	nic   *NIC
	ring  *memory.Region
	slot  int
	slots int
	queue []CQE
	head  int
	// Sig is woken whenever a CQE arrives, letting simulated threads block
	// instead of busy-spinning the simulator.
	Sig *sim.Signal
}

// CreateCQ allocates a completion queue with the configured depth.
func (n *NIC) CreateCQ() *CQ {
	depth := n.Cfg.CQDepth
	ring := n.mem.Register(depth*64, memory.PageSize2M, memory.LocalWrite)
	return &CQ{nic: n, ring: ring, slots: depth, Sig: sim.NewSignal(n.env)}
}

// push DMA-writes a CQE into the ring (hardware side).
func (cq *CQ) push(e CQE) {
	if len(cq.queue)-cq.head >= cq.slots {
		panic("nic: CQ overrun")
	}
	addr := cq.ring.Base + uint64(cq.slot*64)
	cq.slot = (cq.slot + 1) % cq.slots
	_, allocs := cq.nic.llc.DMAWrite(addr, 64)
	cq.nic.bus.RecordDeviceWrite(addr, 64, cq.nic.llc.LineSize(), allocs)
	cq.queue = append(cq.queue, e)
	cq.Sig.Broadcast()
}

// Poll removes up to max completions. The CPU cost of polling is charged by
// the caller through the host layer (each returned CQE was DMA-written to
// the ring, so reading it touches the LLC model via host.Thread).
func (cq *CQ) Poll(max int) []CQE {
	avail := len(cq.queue) - cq.head
	if avail == 0 {
		return nil
	}
	if avail > max {
		avail = max
	}
	out := make([]CQE, avail)
	copy(out, cq.queue[cq.head:cq.head+avail])
	cq.head += avail
	if cq.head == len(cq.queue) {
		cq.queue = cq.queue[:0]
		cq.head = 0
	}
	return out
}

// Len returns the number of pending completions.
func (cq *CQ) Len() int { return len(cq.queue) - cq.head }

// RingBase returns the ring's base address.
func (cq *CQ) RingBase() uint64 { return cq.ring.Base }

// inflightWR tracks an unacknowledged RC work request.
type inflightWR struct {
	psn      uint64
	wr       SendWR
	needResp bool // READ/ATOMIC: completes via response, not ACK
	// inline holds the payload captured at post time for inline WRs, so a
	// retransmission resends the original bytes even if the source buffer
	// was reused meanwhile.
	inline []byte
}

// atomicEcho caches a recently executed atomic's result so a duplicate
// request (its response was lost) can be replayed without re-executing the
// non-idempotent operation — the responder-side "atomic response cache" of
// real RC hardware.
type atomicEcho struct {
	psn uint64
	old uint64
}

// atomicEchoCap bounds the per-QP atomic replay history; it comfortably
// exceeds any inflight window this model produces.
const atomicEchoCap = 64

// QP is a simulated queue pair.
type QP struct {
	nic  *NIC
	QPN  uint32
	Type QPType

	SendCQ *CQ
	RecvCQ *CQ

	state     QPState
	remoteNIC int
	remoteQPN uint32

	// DCT initiator state: the currently connected target.
	dctDstNIC int
	dctDstQPN uint32

	recvQ    []RecvWR
	recvHead int

	// RC reliability state.
	sendPSN   uint64
	expectPSN uint64
	inflight  []inflightWR
	nakSent   bool

	// Departure order. lastDepart is when the QP's latest WQE leaves the
	// outbound engine. respDepart is when its latest deferred response (READ
	// data waiting out its gather, or a response queued behind one) leaves
	// the responder; every deferred response leaves at or before it. Neither
	// stream lets a later packet overtake an earlier one.
	lastDepart sim.Time
	respDepart sim.Time

	// Requester-side retry machinery (active when Config.RetransmitTimeout
	// is positive). timerGen invalidates scheduled timer callbacks: any
	// progress bumps it, so a stale timeout finds gen mismatched and does
	// nothing.
	timerGen   uint64
	retries    int // consecutive timeouts without progress
	rnrRetries int // consecutive RNR NAKs without progress

	// Responder-side atomic replay ring (see atomicEcho).
	atomicHist []atomicEcho

	err error
}

// CreateQP creates a queue pair of the given type with the given CQs.
// Connected transports start in RESET; datagram transports are usable
// immediately (RTS).
func (n *NIC) CreateQP(t QPType, sendCQ, recvCQ *CQ) *QP {
	qp := &QP{nic: n, QPN: n.allocQPN(), Type: t, SendCQ: sendCQ, RecvCQ: recvCQ}
	switch t {
	case UD, DCT, DCTTarget:
		qp.state = QPRTS
	default:
		qp.state = QPReset
	}
	n.qps[qp.QPN] = qp
	return qp
}

// DestroyQP removes the QP from the NIC, flushing outstanding WQEs — both
// unacknowledged sends and posted receives — with CQFlushError (the same
// path the error state takes) so teardown during in-flight traffic cannot
// strand completions, and invalidates its cached context.
func (n *NIC) DestroyQP(qp *QP) {
	if qp.err == nil {
		qp.err = n.errorf("QP %d destroyed", qp.QPN)
	}
	qp.state = QPErr
	n.flushQP(qp)
	delete(n.qps, qp.QPN)
	n.qpcCache.Invalidate(uint64(qp.QPN))
	n.wqeCache.Invalidate(uint64(qp.QPN))
}

// Modify drives one QP state transition (the ModifyQP verb) and returns the
// modeled verb latency — a command-queue round trip to NIC firmware, orders
// of magnitude slower than a data-path doorbell — which the caller must
// charge in virtual time (host.Thread.ModifyQP sleeps it). Transitions must
// follow RESET→INIT→RTR→RTS; RTR installs the peer address and expected PSN
// on connected transports, RTS installs the local send PSN. A transition to
// RESET is allowed from any state and recycles the QP, flushing outstanding
// work; a transition to ERR invokes the error path.
func (qp *QP) Modify(to QPState, attr ModifyAttr) (sim.Duration, error) {
	n := qp.nic
	if qp.err != nil && to != QPReset {
		return 0, qp.err
	}
	switch to {
	case QPReset:
		n.flushQP(qp)
		qp.err = nil
		qp.state = QPReset
		qp.remoteNIC, qp.remoteQPN = 0, 0
		qp.sendPSN, qp.expectPSN = 0, 0
		qp.retries, qp.rnrRetries = 0, 0
		qp.nakSent = false
		return n.Cfg.ModifyInitCost, nil
	case QPInit:
		if qp.state != QPReset {
			return 0, fmt.Errorf("%w: %v→INIT", ErrBadTransition, qp.state)
		}
		qp.state = QPInit
		return n.Cfg.ModifyInitCost, nil
	case QPRTR:
		if qp.state != QPInit {
			return 0, fmt.Errorf("%w: %v→RTR", ErrBadTransition, qp.state)
		}
		if qp.Type == RC || qp.Type == UC {
			if attr.RemoteQPN == 0 {
				return 0, fmt.Errorf("%w: RTR on %v requires a remote QPN", ErrBadTransition, qp.Type)
			}
			qp.remoteNIC, qp.remoteQPN = attr.RemoteNIC, attr.RemoteQPN
			qp.expectPSN = attr.RemotePSN
		}
		qp.state = QPRTR
		return n.Cfg.ModifyRTRCost, nil
	case QPRTS:
		if qp.state != QPRTR {
			return 0, fmt.Errorf("%w: %v→RTS", ErrBadTransition, qp.state)
		}
		qp.sendPSN = attr.LocalPSN
		qp.state = QPRTS
		return n.Cfg.ModifyRTSCost, nil
	case QPErr:
		n.enterQPError(qp, n.errorf("QP %d moved to error state", qp.QPN), CQFlushError)
		return n.Cfg.ModifyInitCost, nil
	}
	return 0, fmt.Errorf("%w: unknown target state", ErrBadTransition)
}

// Connect pairs two RC/UC QPs directly, driving both straight to RTS at
// zero modeled cost — a test-only backdoor standing in for an instantaneous
// out-of-band (TCP) exchange. Production wiring goes through the
// internal/ctrlplane handshake, which pays the real ModifyQP latencies
// in-band. Both QPs must still be in RESET; re-pairing a live QP errors.
func Connect(a, b *QP) error {
	if a.Type == UD || b.Type == UD {
		return fmt.Errorf("%w: UD QPs are connectionless", ErrVerbUnsupported)
	}
	if a.Type == DCT || b.Type == DCT || a.Type == DCTTarget || b.Type == DCTTarget {
		return fmt.Errorf("%w: DCT connects dynamically per message", ErrVerbUnsupported)
	}
	if a.Type != b.Type {
		return fmt.Errorf("nic: cannot connect %v to %v", a.Type, b.Type)
	}
	if a.state != QPReset {
		return fmt.Errorf("%w: QP %d is %v", ErrAlreadyConnected, a.QPN, a.state)
	}
	if b.state != QPReset {
		return fmt.Errorf("%w: QP %d is %v", ErrAlreadyConnected, b.QPN, b.state)
	}
	a.remoteNIC, a.remoteQPN = b.nic.id, b.QPN
	b.remoteNIC, b.remoteQPN = a.nic.id, a.QPN
	a.state, b.state = QPRTS, QPRTS
	return nil
}

// Err returns the QP's error state, if any.
func (qp *QP) Err() error { return qp.err }

// State returns the QP's current state.
func (qp *QP) State() QPState { return qp.state }

// validate enforces the Table 1 verb/MTU support matrix.
func (qp *QP) validate(wr *SendWR) error {
	switch qp.Type {
	case UD:
		if wr.Op != OpSend {
			return fmt.Errorf("%w: %v on UD", ErrVerbUnsupported, wr.Op)
		}
		if wr.Len > qp.nic.Cfg.UDMTU {
			return fmt.Errorf("%w: %d > %d (UD)", ErrMTU, wr.Len, qp.nic.Cfg.UDMTU)
		}
	case UC:
		switch wr.Op {
		case OpSend, OpWrite, OpWriteImm:
		default:
			return fmt.Errorf("%w: %v on UC", ErrVerbUnsupported, wr.Op)
		}
		if wr.Len > qp.nic.Cfg.MaxMsg {
			return fmt.Errorf("%w: %d > %d (UC)", ErrMTU, wr.Len, qp.nic.Cfg.MaxMsg)
		}
		if qp.state != QPRTS {
			return ErrNotConnected
		}
	case RC:
		if wr.Len > qp.nic.Cfg.MaxMsg {
			return fmt.Errorf("%w: %d > %d (RC)", ErrMTU, wr.Len, qp.nic.Cfg.MaxMsg)
		}
		if qp.state != QPRTS {
			return ErrNotConnected
		}
	case DCT:
		// Full RC verb set, addressed per-request like UD.
		if wr.Len > qp.nic.Cfg.MaxMsg {
			return fmt.Errorf("%w: %d > %d (DCT)", ErrMTU, wr.Len, qp.nic.Cfg.MaxMsg)
		}
	case DCTTarget:
		return fmt.Errorf("%w: DCT targets are passive", ErrVerbUnsupported)
	}
	if wr.Inline && wr.Len > qp.nic.Cfg.MaxInline {
		return ErrInlineTooLarge
	}
	if wr.Inline {
		switch wr.Op {
		case OpRead, OpCompSwap, OpFetchAdd:
			return fmt.Errorf("%w: inline %v", ErrVerbUnsupported, wr.Op)
		}
	}
	return nil
}

// PostSend posts a send work request: the one-WR case of PostSendBatch.
// The caller charges its own CPU time through the host layer.
func (qp *QP) PostSend(wr SendWR) error {
	_, err := qp.PostSendBatch([]SendWR{wr})
	return err
}

// PostSendBatch posts a chain of send work requests behind one MMIO
// doorbell, as one ibv_post_send with a WR list does. The WRs are validated
// and queued in order; the chain stops at the first that fails, which is
// not queued (ibv_post_send's bad_wr), and posted says how many were. No
// doorbell rings when none was.
func (qp *QP) PostSendBatch(wrs []SendWR) (posted int, err error) {
	if qp.err != nil {
		return 0, qp.err
	}
	n := qp.nic
	for i := range wrs {
		if err = qp.enqueue(&wrs[i]); err != nil {
			break
		}
		posted++
	}
	if posted > 0 {
		n.bus.RecordMMIO()
		n.outKick()
	}
	return posted, err
}

// enqueue validates one WR and appends it to the outbound engine's queue,
// capturing an inline payload now.
func (qp *QP) enqueue(wr *SendWR) error {
	if err := qp.validate(wr); err != nil {
		return err
	}
	n := qp.nic
	job := outJob{qp: qp, wr: *wr}
	if wr.Inline && wr.Len > 0 {
		reg, err := n.mem.LocalRegion(wr.LKey, wr.LAddr, wr.Len)
		if err != nil {
			return err
		}
		// Pooled copy. For RC/DCT the buffer is owned by the inflight entry
		// and retires at ACK time; for UD/UC ownership transfers to the
		// packet in processOut (see pool.go).
		job.inlineData = n.getBuf(wr.Len)
		_, _ = reg.ReadAt(job.inlineData, int64(wr.LAddr-reg.Base)) // LocalRegion checked the span
	}
	n.outQ = append(n.outQ, job)
	return nil
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(wr RecvWR) error {
	if qp.err != nil {
		return qp.err
	}
	qp.nic.bus.RecordMMIO()
	qp.recvQ = append(qp.recvQ, wr)
	return nil
}

// PostRecvBatch posts several receives with a single doorbell.
func (qp *QP) PostRecvBatch(wrs []RecvWR) error {
	if qp.err != nil {
		return qp.err
	}
	qp.nic.bus.RecordMMIO()
	qp.recvQ = append(qp.recvQ, wrs...)
	return nil
}

// RecvQueueLen reports the number of posted, unconsumed receives.
func (qp *QP) RecvQueueLen() int { return len(qp.recvQ) - qp.recvHead }

func (qp *QP) popRecv() (RecvWR, bool) {
	if qp.recvHead >= len(qp.recvQ) {
		return RecvWR{}, false
	}
	wr := qp.recvQ[qp.recvHead]
	qp.recvHead++
	if qp.recvHead == len(qp.recvQ) {
		qp.recvQ = qp.recvQ[:0]
		qp.recvHead = 0
	}
	return wr, true
}

// rememberAtomic records an executed atomic's old value for duplicate
// replay.
func (qp *QP) rememberAtomic(psn, old uint64) {
	if len(qp.atomicHist) >= atomicEchoCap {
		qp.atomicHist = qp.atomicHist[1:]
	}
	qp.atomicHist = append(qp.atomicHist, atomicEcho{psn: psn, old: old})
}

// replayAtomic looks up the cached result of an already-executed atomic.
func (qp *QP) replayAtomic(psn uint64) (uint64, bool) {
	for _, e := range qp.atomicHist {
		if e.psn == psn {
			return e.old, true
		}
	}
	return 0, false
}

// cancelTimer invalidates any scheduled retransmit timeout.
func (qp *QP) cancelTimer() { qp.timerGen++ }

// noteProgress resets the retry counters after an acknowledgement advanced
// the inflight window, and re-arms the timer if work remains outstanding.
func (qp *QP) noteProgress() {
	qp.retries = 0
	qp.rnrRetries = 0
	qp.cancelTimer()
	qp.nic.armTimer(qp)
}
