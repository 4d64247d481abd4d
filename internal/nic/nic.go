// Package nic implements the simulated RDMA NIC ("RNIC") and its
// ibverbs-style programming interface: queue pairs in RC, UC and UD modes,
// completion queues, one-sided READ/WRITE/ATOMIC verbs, two-sided
// SEND/RECV, and WRITE_WITH_IMM.
//
// The model reproduces the hardware behaviours the paper's analysis (§2.3)
// depends on:
//
//   - Outbound verb processing needs the QP context and the posted WQE.
//     Both live in small on-NIC LRU caches; a miss stalls the processing
//     engine for a PCIe DMA read and increments the host's PCIeRdCur
//     counter. With more active QPs than cache entries, outbound
//     throughput collapses — Figure 1(b)/3(a)/10.
//
//   - Inbound writes bypass those caches (the NIC "only needs to store the
//     messages to the local memory without modifying the cached states")
//     but land in the host LLC through DDIO; when the target pool exceeds
//     the DDIO budget, write-allocates stall the inbound engine and evict
//     useful lines — Figure 3(b).
//
//   - Address translation consults an MTT cache keyed by (key, page);
//     registering huge pages keeps it small, 4 KB pages thrash it.
//
// Engines: each NIC has one outbound and one inbound processing engine.
// Jobs occupy an engine serially (that is the throughput limit); DMA
// payload transfers are pipelined and add delivery latency but not engine
// occupancy.
package nic

import (
	"fmt"

	"scalerpc/internal/cachesim"
	"scalerpc/internal/fabric"
	"scalerpc/internal/memory"
	"scalerpc/internal/pcie"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// Config holds the NIC model parameters.
type Config struct {
	// Cache geometries.
	QPCCacheEntries int // QP contexts resident on-NIC
	WQECacheEntries int // per-QP WQE windows resident on-NIC
	MTTCacheEntries int // page translations resident on-NIC

	// Outbound engine occupancy.
	OutboundBaseCost sim.Duration // per WQE, caches hot
	OutboundUDExtra  sim.Duration // extra for UD address-handle resolution
	// CacheMissStall is the engine occupancy added per QPC/WQE/MTT cache
	// miss. It is smaller than the full DMA read latency because the
	// NIC's processing units overlap refills with other work; the full
	// latency still delays the message's departure.
	CacheMissStall sim.Duration

	// Inbound engine occupancy.
	InboundWriteCost sim.Duration // per inbound WRITE
	InboundSendCost  sim.Duration // per inbound SEND (recv WQE consume)
	InboundReadCost  sim.Duration // per inbound READ request
	InboundAckCost   sim.Duration // per inbound ACK/NAK
	AtomicCost       sim.Duration // extra for atomics (bus lock)

	// Limits.
	MaxInline int // bytes postable inline in the WQE
	UDMTU     int // UD payload limit (4 KB per Table 1)
	MaxMsg    int // RC/UC payload limit (2 GB per Table 1)

	// UDLossRate drops incoming UD packets with this probability
	// (unreliable datagram; default 0 — IB fabrics are lossless).
	UDLossRate float64

	// TornWriteDelay, when positive, commits inbound RDMA writes in two
	// steps: every byte except the last lands first, and the final
	// (highest-address) byte lands TornWriteDelay later. RDMA only
	// guarantees increasing-address-order visibility, so this fault
	// injection verifies that pollers relying on a trailing Valid byte
	// (the paper's right-aligned layout, §3.1) never observe a partial
	// message as complete.
	TornWriteDelay sim.Duration

	// CQDepth is the completion queue capacity; overrun is fatal, as on
	// real hardware.
	CQDepth int

	// RetransmitTimeout enables requester-side timeout retransmission on
	// RC/DCT QPs: whenever the oldest inflight WQE goes unacknowledged for
	// this long, every inflight WQE is retransmitted (go-back-N) and the
	// QP's retry counter increments. Zero (the default) disables the
	// timer — on a lossless fabric the NAK path alone recovers every gap,
	// and the fault plane (internal/faults) raises this when it makes the
	// fabric lossy.
	RetransmitTimeout sim.Duration
	// RetryCount is how many consecutive timeouts are tolerated before the
	// QP enters the error state and flushes its inflight WQEs with
	// CQRetryExceeded. Zero means the default (7, as in ibverbs).
	RetryCount int
	// RNRTimeout is the requester's back-off before retransmitting a send
	// that drew an RNR NAK (receiver not ready: no posted recv). Zero
	// means the default (8 µs).
	RNRTimeout sim.Duration
	// RNRRetryCount bounds consecutive RNR NAKs before the QP errors with
	// CQRNRRetryExceeded. Zero means the default (7).
	RNRRetryCount int

	// StrictLRUCaches switches the on-NIC caches from randomized
	// replacement (realistic gradual degradation; the default) to strict
	// LRU (useful in tests asserting exact eviction behaviour).
	StrictLRUCaches bool

	// Control-plane verb latencies. CreateQP and each ModifyQP transition
	// are command-queue round trips to NIC firmware — microseconds, orders
	// of magnitude slower than a data-path doorbell (Swift measures this as
	// the bottleneck for elastic workloads). QP.Modify returns the cost;
	// host.Thread.CreateQP/ModifyQP charge it as blocked time, so raw
	// nic-level calls in tests stay free.
	CreateQPCost   sim.Duration
	ModifyInitCost sim.Duration // RESET→INIT (also RESET recycle, →ERR)
	ModifyRTRCost  sim.Duration // INIT→RTR (installs peer address/PSN)
	ModifyRTSCost  sim.Duration // RTR→RTS
}

// DefaultConfig returns parameters calibrated against the paper's
// ConnectX-3 generation testbed (see DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		QPCCacheEntries:  64,
		WQECacheEntries:  64,
		MTTCacheEntries:  2048,
		OutboundBaseCost: 50,
		OutboundUDExtra:  40,
		CacheMissStall:   180,
		InboundWriteCost: 28,
		InboundSendCost:  100,
		InboundReadCost:  60,
		InboundAckCost:   5,
		AtomicCost:       150,
		MaxInline:        188,
		UDMTU:            4096,
		MaxMsg:           2 << 30,
		CQDepth:          1024,
		CreateQPCost:     5000,
		ModifyInitCost:   2000,
		ModifyRTRCost:    10000,
		ModifyRTSCost:    5000,
	}
}

// retryLimit returns the effective RetryCount (zero selects the ibverbs
// default of 7).
func (c Config) retryLimit() int {
	if c.RetryCount > 0 {
		return c.RetryCount
	}
	return 7
}

// rnrRetryLimit returns the effective RNRRetryCount (zero → 7).
func (c Config) rnrRetryLimit() int {
	if c.RNRRetryCount > 0 {
		return c.RNRRetryCount
	}
	return 7
}

// rnrTimeout returns the effective RNRTimeout (zero → 8 µs).
func (c Config) rnrTimeout() sim.Duration {
	if c.RNRTimeout > 0 {
		return c.RNRTimeout
	}
	return 8 * sim.Microsecond
}

// Stats counts NIC-level events.
type Stats struct {
	OutWQEs uint64
	// OutVerbs splits OutWQEs by the posting QP's transport and the verb
	// (Table 1's matrix as exercised): which transport class and opcode
	// carried a protocol's traffic.
	OutVerbs   [DCTTarget + 1][OpFetchAdd + 1]uint64
	InMessages uint64
	QPCHits    uint64
	QPCMisses  uint64
	WQEHits    uint64
	WQEMisses  uint64
	MTTHits    uint64
	MTTMisses  uint64
	// QPCTouchHits/Misses count requester-side completion processing
	// (ACKs, READ responses) touching the QP context cache.
	QPCTouchHits   uint64
	QPCTouchMisses uint64
	RNRDrops       uint64 // sends arriving with no posted recv (UD/UC drop; RC NAKs instead)
	UDDrops        uint64 // injected unreliable-datagram losses
	Retransmits    uint64 // retransmitted WQEs, any cause (NAK, timeout, RNR)
	NAKs           uint64 // sequence-gap NAKs sent (responder side)
	DCTConnects    uint64 // DCT context switches (connect packets sent)
	// Per-QP retry machinery (requester side).
	QPRetransmits uint64 // WQEs retransmitted by the timeout/RNR retry path
	RNRNaks       uint64 // RNR NAKs received
	QPErrors      uint64 // QPs that entered the error state
	// Atomic responder path (CAS/FetchAdd against local memory).
	AtomicOps     uint64 // atomics executed against local registered memory
	AtomicReplays uint64 // duplicate atomics answered from the replay cache
	// PayloadMangles counts deliveries whose payload was corrupted past
	// the ICRC (faults-plane CorruptPayload injections committed to memory).
	PayloadMangles uint64
}

// NIC is one simulated RNIC.
type NIC struct {
	Cfg   Config
	Stats Stats

	env  *sim.Env
	id   int
	port *fabric.Port
	fab  *fabric.Fabric
	mem  *memory.Registry
	bus  *pcie.Bus
	llc  *cachesim.Cache
	cost pcie.CostModel
	rng  *stats.RNG

	qps     map[uint32]*QP
	nextQPN uint32

	qpcCache *lruCache
	wqeCache *lruCache
	mttCache *lruCache

	outQ    []outJob
	outHead int
	outBusy bool
	inQ     []*packet
	inHead  int
	inBusy  bool
	// inPkt/inAct are the packet occupying the inbound engine and its
	// pending commit (see inStep).
	inPkt *packet
	inAct inAct

	// Engine continuations, bound once at construction: scheduling a method
	// value (n.inStep) directly would build a fresh closure per event.
	outStepFn, inStepFn, inDoneFn func()
	xmitFn, sendRespFn            func(any)

	watches map[uint32][]*sim.Signal // rkey → signals woken on DMA write

	// pool recycles packets, fabric messages and payload buffers
	// (see pool.go for the ownership contract).
	pool pktPool
	// retransScratch is reused by retransmitFrom's go-back-N splice.
	retransScratch []outJob

	// trace is the telemetry event sink; always non-nil (a disabled sink
	// until Register attaches the NIC to a live registry).
	trace *telemetry.Trace

	// dropNextData, when positive, drops that many incoming RC data
	// packets (fault injection for the retransmission path).
	dropNextData int
}

// Deps bundles the host-side resources a NIC attaches to.
type Deps struct {
	Env  *sim.Env
	Port *fabric.Port
	Fab  *fabric.Fabric
	Mem  *memory.Registry
	Bus  *pcie.Bus
	LLC  *cachesim.Cache
	Cost pcie.CostModel
	RNG  *stats.RNG
}

// New creates a NIC with the given config attached to the supplied host
// resources; it installs itself as the port's delivery handler.
func New(cfg Config, d Deps) *NIC {
	n := &NIC{
		Cfg:     cfg,
		env:     d.Env,
		id:      d.Port.ID,
		port:    d.Port,
		fab:     d.Fab,
		mem:     d.Mem,
		bus:     d.Bus,
		llc:     d.LLC,
		cost:    d.Cost,
		rng:     d.RNG,
		qps:     make(map[uint32]*QP),
		nextQPN: 1,
		watches: make(map[uint32][]*sim.Signal),
		trace:   telemetry.Scope{}.Trace(),
	}
	if cfg.StrictLRUCaches || d.RNG == nil {
		n.qpcCache = newLRU(cfg.QPCCacheEntries)
		n.wqeCache = newLRU(cfg.WQECacheEntries)
		n.mttCache = newLRU(cfg.MTTCacheEntries)
	} else {
		n.qpcCache = newRandomCache(cfg.QPCCacheEntries, d.RNG.Split())
		n.wqeCache = newRandomCache(cfg.WQECacheEntries, d.RNG.Split())
		n.mttCache = newRandomCache(cfg.MTTCacheEntries, d.RNG.Split())
	}
	n.outStepFn, n.inStepFn, n.inDoneFn = n.outStep, n.inStep, n.inDone
	n.xmitFn, n.sendRespFn = n.xmit, n.sendResp
	d.Port.OnDeliver(n.deliver)
	return n
}

// Register publishes the NIC counters into a telemetry scope (conventionally
// "nic<hostID>") and attaches the scope's trace sink for QPC-eviction events.
// The public Stats struct remains the storage; the registry observes the
// fields in place.
func (n *NIC) Register(sc telemetry.Scope) {
	sc.CounterVar("out.wqes", &n.Stats.OutWQEs)
	sc.CounterVar("in.messages", &n.Stats.InMessages)
	sc.CounterVar("qpc.hit", &n.Stats.QPCHits)
	sc.CounterVar("qpc.miss", &n.Stats.QPCMisses)
	sc.CounterVar("wqe.hit", &n.Stats.WQEHits)
	sc.CounterVar("wqe.miss", &n.Stats.WQEMisses)
	sc.CounterVar("mtt.hit", &n.Stats.MTTHits)
	sc.CounterVar("mtt.miss", &n.Stats.MTTMisses)
	sc.CounterVar("qpc.touch.hit", &n.Stats.QPCTouchHits)
	sc.CounterVar("qpc.touch.miss", &n.Stats.QPCTouchMisses)
	sc.CounterVar("rnr.drops", &n.Stats.RNRDrops)
	sc.CounterVar("ud.drops", &n.Stats.UDDrops)
	sc.CounterVar("retransmits", &n.Stats.Retransmits)
	sc.CounterVar("naks", &n.Stats.NAKs)
	sc.CounterVar("dct.connects", &n.Stats.DCTConnects)
	sc.CounterVar("qp.retransmits", &n.Stats.QPRetransmits)
	sc.CounterVar("qp.rnr_naks", &n.Stats.RNRNaks)
	sc.CounterVar("qp.errors", &n.Stats.QPErrors)
	sc.CounterVar("atomic_ops", &n.Stats.AtomicOps)
	sc.CounterVar("qp.atomic_replays", &n.Stats.AtomicReplays)
	sc.CounterVar("payload.mangles", &n.Stats.PayloadMangles)
	n.trace = sc.Trace()
}

// Snapshot returns a copy of the counters.
func (n *NIC) Snapshot() Stats { return n.Stats }

// Reset zeroes the counters.
func (n *NIC) Reset() { n.Stats = Stats{} }

// ID returns the NIC's fabric port id.
func (n *NIC) ID() int { return n.id }

// PortBytes returns the cumulative bytes the NIC's port has sent and
// received, wire headers included; against LineRate it tells a quiet link
// from a saturated one.
func (n *NIC) PortBytes() (tx, rx uint64) { return n.port.Stats.TxBytes, n.port.Stats.RxBytes }

// LineRate returns the port's bandwidth per direction, in bytes per
// nanosecond.
func (n *NIC) LineRate() float64 { return n.fab.BytesPerNs() }

// Env returns the simulation environment.
func (n *NIC) Env() *sim.Env { return n.env }

// Mem returns the host memory registry this NIC translates against.
func (n *NIC) Mem() *memory.Registry { return n.mem }

// WatchRegion registers sig to be woken whenever the NIC DMA-writes into
// the region identified by rkey. This stands in for the cache-coherent
// memory polling a real server does in a tight loop: the simulated poller
// still pays the modelled scan cost, but does not burn simulator events
// while the region is quiet.
func (n *NIC) WatchRegion(rkey uint32, sig *sim.Signal) {
	n.watches[rkey] = append(n.watches[rkey], sig)
}

// DropNextDataPackets arranges for the next k incoming RC data packets to
// be dropped — fault injection for testing the NAK/retransmit path.
func (n *NIC) DropNextDataPackets(k int) { n.dropNextData += k }

// CacheHitRates returns the outbound QPC, WQE and MTT hit rates. The QPC
// rate covers send-side lookups only; completion-side touches are counted
// separately in Stats.QPCTouch*.
func (n *NIC) CacheHitRates() (qpc, wqe, mtt float64) {
	qpc = ratio(n.Stats.QPCHits, n.Stats.QPCMisses)
	return qpc, n.wqeCache.HitRate(), n.mttCache.HitRate()
}

func ratio(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

func (n *NIC) allocQPN() uint32 {
	q := n.nextQPN
	n.nextQPN++
	return q
}

// mttKey builds the MTT cache key for a page of a protection key.
func mttKey(key uint32, page int) uint64 {
	return uint64(key)<<32 | uint64(uint32(page))
}

// chargeMTT looks up the page translations spanned by [addr,addr+size) of
// region r and returns the added occupancy for misses.
func (n *NIC) chargeMTT(r *memory.Region, addr uint64, size int) sim.Duration {
	var extra sim.Duration
	first := r.PageOf(addr)
	last := first
	if size > 0 {
		last = r.PageOf(addr + uint64(size) - 1)
	}
	for p := first; p <= last; p++ {
		if n.mttCache.Access(mttKey(r.RKey, p)) {
			n.Stats.MTTHits++
		} else {
			n.Stats.MTTMisses++
			n.bus.RecordDMARead(1)
			extra += n.Cfg.CacheMissStall
		}
	}
	return extra
}

func (n *NIC) wakeWatches(rkey uint32) {
	for _, s := range n.watches[rkey] {
		s.Broadcast()
	}
}

func (n *NIC) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("nic %d: %s", n.id, fmt.Sprintf(format, args...))
}
