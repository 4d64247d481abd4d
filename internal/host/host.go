// Package host models one machine: a pool of CPU cores, a last-level cache
// shared with the NIC via DDIO, a PCIe root complex, registered memory, and
// one RNIC. It also provides the Thread abstraction simulated software runs
// on: threads charge CPU time against the core pool and pay LLC-modelled
// costs for the memory they touch, which is how message-pool footprint
// turns into real slowdown (Figure 3(b)).
package host

import (
	"fmt"

	"scalerpc/internal/cachesim"
	"scalerpc/internal/fabric"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/pcie"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// Config describes a machine.
type Config struct {
	Cores int
	LLC   cachesim.Config

	// CPU memory access costs (per cacheline).
	LLCHitCost  sim.Duration
	MemReadCost sim.Duration

	// BaseOpCost approximates the instruction overhead of one software
	// operation (function call, branch, small compute) and is used by
	// upper layers as the unit of "handler work".
	BaseOpCost sim.Duration
}

// DefaultConfig matches the paper's dual E5-2650 v4 nodes: 24 cores and a
// 30 MB LLC (2×12-core sockets modelled as one pool), with DDIO limited to
// 10% of ways.
func DefaultConfig() Config {
	return Config{
		Cores: 24,
		LLC: cachesim.Config{
			SizeBytes: 30 << 20,
			Ways:      20,
			LineSize:  64,
			DDIOWays:  2,
		},
		LLCHitCost:  15,
		MemReadCost: 85,
		BaseOpCost:  25,
	}
}

// Host is one simulated machine.
type Host struct {
	ID    int
	Env   *sim.Env
	Cfg   Config
	Cores *sim.Resource
	LLC   *cachesim.Cache
	Bus   *pcie.Bus
	Mem   *memory.Registry
	NIC   *nic.NIC
	RNG   *stats.RNG

	// Tel is the host's telemetry scope ("host<id>"); software layers
	// derive their scopes from Tel.Registry(). Detached when the host is
	// built without a registry.
	Tel telemetry.Scope

	// CPU time accounting across all of the host's threads, in virtual ns.
	CPUWorkNs  uint64 // time charged against the core pool
	CPUSleepNs uint64 // time blocked waiting for completions
	// CPUOverlapNs is deferred charge a WaitSignal park handed to a core
	// (UseAsync) that was still running when the parked thread woke: time
	// in which one thread held two cores. Zero when every park outlasts
	// its residue.
	CPUOverlapNs uint64

	// cpuScale multiplies every Work charge when > 1 — a straggling host
	// whose cores run below nominal speed (thermal throttling, a noisy
	// neighbour VM). 0 or 1 is nominal. Set via SetCPUScale.
	cpuScale float64
}

// New assembles a host attached to fabric port id. Its NIC recycles
// packets and payloads through arena, which the cluster's NICs share.
// reg may be nil; the host then runs with detached telemetry at no cost.
// With a registry, the host claims the scopes nic<id>, pcie.bus<id>,
// llc<id> and host<id>.
func New(env *sim.Env, id int, cfg Config, nicCfg nic.Config, cost pcie.CostModel, fab *fabric.Fabric, arena *nic.Arena, rng *stats.RNG, reg *telemetry.Registry) *Host {
	h := &Host{
		ID:    id,
		Env:   env,
		Cfg:   cfg,
		Cores: sim.NewResource(env, cfg.Cores),
		LLC:   cachesim.New(cfg.LLC),
		Bus:   pcie.NewBus(),
		Mem:   memory.NewRegistry(),
		RNG:   rng,
	}
	h.NIC = nic.New(nicCfg, nic.Deps{
		Env:   env,
		Port:  fab.Port(id),
		Fab:   fab,
		Mem:   h.Mem,
		Bus:   h.Bus,
		LLC:   h.LLC,
		Cost:  cost,
		RNG:   rng.Split(),
		Arena: arena,
	})
	if reg != nil {
		h.Tel = reg.Scope(fmt.Sprintf("host%d", id))
		h.NIC.Register(reg.Scope(fmt.Sprintf("nic%d", id)))
		h.Bus.Register(reg.Scope(fmt.Sprintf("pcie.bus%d", id)))
		h.LLC.Register(reg.Scope(fmt.Sprintf("llc%d", id)))
		cpu := h.Tel.Scope("cpu")
		cpu.CounterVar("work_ns", &h.CPUWorkNs)
		cpu.CounterVar("sleep_ns", &h.CPUSleepNs)
		cpu.CounterVar("overlap_ns", &h.CPUOverlapNs)
	}
	return h
}

// Thread is a software thread running on a host. All simulated software
// (RPC clients, server workers, transaction coordinators) runs as Threads.
type Thread struct {
	P    *sim.Proc
	Host *Host

	// Deferred-charge state (see BeginWork): while batchDepth > 0, Work
	// accumulates cost here instead of sleeping on the core pool per call.
	batchDepth int
	deferred   sim.Duration
}

// BeginWork opens a deferred-charge region: until the matching EndWork,
// Work (and ReadMem/WriteMem, which charge through it) accumulates CPU cost
// instead of blocking on the core pool once per call. The accumulated cost
// is settled in a single Cores.Use at EndWork, or earlier at any externally
// visible action (PostSend's doorbell, a blocking wait) via FlushWork.
//
// This is the batching half of the simulator's poll-loop hot path: a pool
// sweep touching hundreds of slots pays one scheduler round trip for the
// whole scan instead of one per slot. Within the region virtual time stands
// still between touches, so a scan observes one consistent snapshot — reads
// that must see concurrent progress (and any block/sleep) belong after
// EndWork or an explicit FlushWork.
func (t *Thread) BeginWork() { t.batchDepth++ }

// EndWork closes a deferred-charge region and settles the remainder.
func (t *Thread) EndWork() {
	if t.batchDepth <= 0 {
		panic("host: EndWork without BeginWork")
	}
	t.batchDepth--
	if t.batchDepth == 0 {
		t.FlushWork()
	}
}

// EndWorkLazy closes a deferred-charge region WITHOUT settling: the
// accumulated cost stays pending and is folded into the thread's next Work
// charge, next FlushWork (all blocking wrappers flush), or — the point of
// this variant — absorbed into a WaitSignal park. Poll loops use it so an
// empty scan-then-wait cycle costs one scheduler wake-up instead of two.
func (t *Thread) EndWorkLazy() {
	if t.batchDepth <= 0 {
		panic("host: EndWorkLazy without BeginWork")
	}
	t.batchDepth--
}

// WaitSignal parks the thread on sig for at most d, absorbing any pending
// deferred charge into the wait: the cost occupies a core via a pure
// scheduler callback while the thread is already parked, instead of a
// separate charge-sleep before parking. Under core contention — all units
// busy, or acquirers already queued for a freed one — it falls back to the
// blocking flush first so FIFO admission is preserved. The
// thread becomes signal-responsive at the park time rather than after the
// charge: woken before the charge has run out, it holds a second core
// until it does, and Host.CPUOverlapNs counts that time. A sweep whose
// residue is large therefore settles it with EndWork before it parks.
// Reports whether the wait timed out.
func (t *Thread) WaitSignal(sig *sim.Signal, d sim.Duration) (timedOut bool) {
	var busyUntil sim.Time
	if w := t.deferred; w > 0 {
		if t.Host.Cores.UseAsync(w) {
			t.deferred = 0
			busyUntil = t.P.Now() + w
		} else {
			t.FlushWork()
		}
	}
	timedOut = sig.WaitTimeout(t.P, d)
	if now := t.P.Now(); busyUntil > now {
		t.Host.CPUOverlapNs += uint64(busyUntil - now)
	}
	return timedOut
}

// FlushWork settles any accumulated deferred cost now (one Cores.Use).
// No-op outside a deferred-charge region or when nothing has accrued.
func (t *Thread) FlushWork() {
	if t.deferred > 0 {
		d := t.deferred
		t.deferred = 0
		t.Host.Cores.Use(t.P, d)
	}
}

// Spawn starts a thread on the host.
func (h *Host) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{Host: h}
	t.P = h.Env.Spawn(fmt.Sprintf("h%d/%s", h.ID, name), func(p *sim.Proc) {
		fn(t)
	})
	return t
}

// SetCPUScale makes every subsequent Work charge cost f times its nominal
// duration (f > 1 slows the host; f <= 1 restores nominal speed). Used by
// the fault plane's straggler episodes.
func (h *Host) SetCPUScale(f float64) {
	if f <= 1 {
		f = 0
	}
	h.cpuScale = f
}

// Work charges d of CPU time on the host's core pool. Inside a BeginWork
// region the charge is deferred (see BeginWork).
func (t *Thread) Work(d sim.Duration) {
	if d <= 0 {
		return
	}
	if s := t.Host.cpuScale; s > 1 {
		d = sim.Duration(float64(d) * s)
	}
	t.Host.CPUWorkNs += uint64(d)
	if t.batchDepth > 0 {
		t.deferred += d
		return
	}
	if t.deferred > 0 {
		// Residue from an EndWorkLazy region: settle it together with this
		// charge in one sleep so charges stay ordered.
		d += t.deferred
		t.deferred = 0
	}
	t.Host.Cores.Use(t.P, d)
}

// ReadMem models the CPU reading [addr, addr+size): it runs the access
// through the LLC and charges hit/miss costs.
func (t *Thread) ReadMem(addr uint64, size int) {
	h, m := t.Host.LLC.CPURead(addr, uint64(size))
	t.Work(sim.Duration(h)*t.Host.Cfg.LLCHitCost + sim.Duration(m)*t.Host.Cfg.MemReadCost)
}

// WriteMem models the CPU writing [addr, addr+size).
func (t *Thread) WriteMem(addr uint64, size int) {
	h, m := t.Host.LLC.CPUWrite(addr, uint64(size))
	t.Work(sim.Duration(h)*t.Host.Cfg.LLCHitCost + sim.Duration(m)*t.Host.Cfg.MemReadCost)
}

// PostSend charges the CPU cost of assembling and doorbelling one work
// request (MMIO write) and posts it: the one-WR case of PostSendBatch.
// Any deferred charges are settled first: the doorbell must ring at the
// virtual time all preceding CPU work has been paid for.
func (t *Thread) PostSend(qp *nic.QP, wr nic.SendWR) error {
	_, err := t.PostSendBatch(qp, []nic.SendWR{wr})
	return err
}

// PostSendBatch posts a chain of work requests behind one doorbell,
// charging a WQE build per WR and one MMIO, as PostRecvBatch does. It
// returns how many WRs were posted (see nic.QP.PostSendBatch).
func (t *Thread) PostSendBatch(qp *nic.QP, wrs []nic.SendWR) (int, error) {
	t.Work(t.Host.Cfg.BaseOpCost*sim.Duration(len(wrs)) + 100) // WQE builds + MMIO
	t.FlushWork()
	return qp.PostSendBatch(wrs)
}

// CreateQP allocates a queue pair, charging the modeled QP-creation
// latency (a command-queue round trip to NIC firmware) as blocked time.
func (t *Thread) CreateQP(typ nic.QPType, sendCQ, recvCQ *nic.CQ) *nic.QP {
	t.Work(t.Host.Cfg.BaseOpCost)
	if d := t.Host.NIC.Cfg.CreateQPCost; d > 0 {
		t.FlushWork()
		t.P.Sleep(d)
	}
	return t.Host.NIC.CreateQP(typ, sendCQ, recvCQ)
}

// ModifyQP drives one QP state transition, charging the modeled ModifyQP
// verb latency as blocked time so connection setup is visible in virtual
// time.
func (t *Thread) ModifyQP(qp *nic.QP, to nic.QPState, attr nic.ModifyAttr) error {
	t.Work(t.Host.Cfg.BaseOpCost)
	d, err := qp.Modify(to, attr)
	if err != nil {
		return err
	}
	if d > 0 {
		t.FlushWork()
		t.P.Sleep(d)
	}
	return nil
}

// PostRecv charges CPU cost and posts a receive.
func (t *Thread) PostRecv(qp *nic.QP, wr nic.RecvWR) error {
	t.Work(t.Host.Cfg.BaseOpCost + 100)
	t.FlushWork()
	return qp.PostRecv(wr)
}

// PostRecvBatch posts a batch of receives with one doorbell.
func (t *Thread) PostRecvBatch(qp *nic.QP, wrs []nic.RecvWR) error {
	t.Work(t.Host.Cfg.BaseOpCost*sim.Duration(len(wrs)) + 100)
	t.FlushWork()
	return qp.PostRecvBatch(wrs)
}

// PollCQ polls up to max completions, charging the poll cost: one ring
// check plus an LLC-modelled read per returned CQE, settled as a single
// charge.
func (t *Thread) PollCQ(cq *nic.CQ, max int) []nic.CQE {
	t.BeginWork()
	t.Work(t.Host.Cfg.BaseOpCost)
	cqes := cq.Poll(max)
	if len(cqes) > 0 {
		t.ReadMem(cq.RingBase(), len(cqes)*64)
	}
	t.EndWork()
	return cqes
}

// WaitCQ blocks until the CQ has completions or d elapses, then polls.
func (t *Thread) WaitCQ(cq *nic.CQ, max int, d sim.Duration) []nic.CQE {
	t.FlushWork()
	if cq.Len() == 0 {
		start := t.P.Now()
		cq.Sig.WaitTimeout(t.P, d)
		t.Host.CPUSleepNs += uint64(t.P.Now() - start)
	}
	return t.PollCQ(cq, max)
}
