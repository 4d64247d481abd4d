package host_test

import (
	"errors"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

func newHost(t *testing.T) (*cluster.Cluster, *host.Host) {
	t.Helper()
	c := cluster.New(cluster.Default(2))
	t.Cleanup(c.Close)
	return c, c.Hosts[0]
}

func TestWorkChargesCoreTime(t *testing.T) {
	c, h := newHost(t)
	h.Spawn("w", func(th *host.Thread) {
		th.Work(1000)
	})
	if end := c.Env.Run(); end != 1000 {
		t.Fatalf("end = %d, want 1000", end)
	}
}

func TestWorkZeroOrNegativeFree(t *testing.T) {
	c, h := newHost(t)
	h.Spawn("w", func(th *host.Thread) {
		th.Work(0)
		th.Work(-5)
	})
	if end := c.Env.Run(); end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

func TestCoreContentionSerializes(t *testing.T) {
	// More runnable threads than cores: total time = work / cores.
	cfg := cluster.Default(1)
	cfg.Host.Cores = 2
	c := cluster.New(cfg)
	defer c.Close()
	h := c.Hosts[0]
	for i := 0; i < 6; i++ {
		h.Spawn("w", func(th *host.Thread) { th.Work(100) })
	}
	if end := c.Env.Run(); end != 300 {
		t.Fatalf("end = %d, want 300 (6×100ns on 2 cores)", end)
	}
}

func TestReadMemColdVsWarm(t *testing.T) {
	c, h := newHost(t)
	reg := h.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	var cold, warm sim.Time
	h.Spawn("w", func(th *host.Thread) {
		start := th.P.Now()
		th.ReadMem(reg.Base, 512) // 8 cold lines
		cold = th.P.Now() - start
		start = th.P.Now()
		th.ReadMem(reg.Base, 512) // 8 warm lines
		warm = th.P.Now() - start
	})
	c.Env.Run()
	if cold != 8*h.Cfg.MemReadCost {
		t.Fatalf("cold = %d, want %d", cold, 8*h.Cfg.MemReadCost)
	}
	if warm != 8*h.Cfg.LLCHitCost {
		t.Fatalf("warm = %d, want %d", warm, 8*h.Cfg.LLCHitCost)
	}
}

func TestPollCQChargesAndDrains(t *testing.T) {
	c, h := newHost(t)
	b := c.Hosts[1]
	cqA := h.NIC.CreateCQ()
	qa := h.NIC.CreateQP(nic.RC, cqA, cqA)
	cqB := b.NIC.CreateCQ()
	qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
	nic.Connect(qa, qb)
	src := h.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)

	var got int
	h.Spawn("w", func(th *host.Thread) {
		th.PostSend(qa, nic.SendWR{Op: nic.OpWrite, Signaled: true,
			LKey: src.LKey, LAddr: src.Base, Len: 32, RKey: dst.RKey, RAddr: dst.Base})
		cqes := th.WaitCQ(cqA, 8, sim.Millisecond)
		got = len(cqes)
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("got %d completions", got)
	}
}

func TestWaitCQTimesOutEmpty(t *testing.T) {
	c, h := newHost(t)
	cq := h.NIC.CreateCQ()
	var n int
	var at sim.Time
	h.Spawn("w", func(th *host.Thread) {
		n = len(th.WaitCQ(cq, 8, 100*sim.Microsecond))
		at = th.P.Now()
	})
	c.Env.Run()
	if n != 0 {
		t.Fatalf("n = %d", n)
	}
	if at < 100*sim.Microsecond {
		t.Fatalf("returned early at %d", at)
	}
}

func TestPostRecvBatchSingleDoorbell(t *testing.T) {
	c, h := newHost(t)
	cq := h.NIC.CreateCQ()
	qp := h.NIC.CreateQP(nic.UD, cq, cq)
	buf := h.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	before := h.Bus.Snapshot().MMIOWr
	h.Spawn("w", func(th *host.Thread) {
		var wrs []nic.RecvWR
		for i := 0; i < 16; i++ {
			wrs = append(wrs, nic.RecvWR{LKey: buf.LKey, LAddr: buf.Base, Len: 64})
		}
		th.PostRecvBatch(qp, wrs)
	})
	c.Env.Run()
	if d := h.Bus.Snapshot().MMIOWr - before; d != 1 {
		t.Fatalf("batch posted %d doorbells, want 1", d)
	}
	if qp.RecvQueueLen() != 16 {
		t.Fatalf("RecvQueueLen = %d", qp.RecvQueueLen())
	}
}

// TestPostSendBatchSingleDoorbell: a chain of send WRs rings one doorbell
// and costs a WQE build per WR plus one MMIO; a chain stops at its first
// invalid WR and queues nothing from there on; PostSend is the one-WR case
// at its old price.
func TestPostSendBatchSingleDoorbell(t *testing.T) {
	c, h := newHost(t)
	peer := c.Hosts[1]
	qp := h.NIC.CreateQP(nic.RC, h.NIC.CreateCQ(), h.NIC.CreateCQ())
	pqp := peer.NIC.CreateQP(nic.RC, peer.NIC.CreateCQ(), peer.NIC.CreateCQ())
	if err := nic.Connect(qp, pqp); err != nil {
		t.Fatal(err)
	}
	src := h.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	dst := peer.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	src.WriteAt([]byte("abcdefgh"), 0)
	write := func(i int) nic.SendWR {
		return nic.SendWR{Op: nic.OpWrite, Inline: true, LKey: src.LKey, LAddr: src.Base, Len: 8,
			RKey: dst.RKey, RAddr: dst.Base + uint64(i*64)}
	}
	// post runs one poster on a fresh thread and reports the doorbells it
	// rang, the CPU it charged and the WQEs the NIC sent.
	post := func(fn func(th *host.Thread)) (mmio uint64, cpu sim.Duration, wqes uint64) {
		mmio0, wqes0 := h.Bus.Snapshot().MMIOWr, h.NIC.Stats.OutWQEs
		var start, end sim.Time
		h.Spawn("post", func(th *host.Thread) {
			start = th.P.Now()
			fn(th)
			end = th.P.Now()
		})
		c.Env.Run()
		return h.Bus.Snapshot().MMIOWr - mmio0, end - start, h.NIC.Stats.OutWQEs - wqes0
	}
	base := h.Cfg.BaseOpCost

	const n = 5
	mmio, cpu, wqes := post(func(th *host.Thread) {
		var wrs []nic.SendWR
		for i := 0; i < n; i++ {
			wrs = append(wrs, write(i))
		}
		if posted, err := th.PostSendBatch(qp, wrs); posted != n || err != nil {
			t.Errorf("chain: posted %d, err %v", posted, err)
		}
	})
	if mmio != 1 || cpu != base*n+100 || wqes != n {
		t.Errorf("chain of %d: %d doorbells, %d ns, %d WQEs sent; want 1, %d, %d", n, mmio, cpu, wqes, base*n+100, n)
	}

	dst.WriteAt(make([]byte, dst.Len()), 0)
	bad := write(2)
	bad.Len = h.NIC.Cfg.MaxInline + 1
	mmio, _, wqes = post(func(th *host.Thread) {
		wrs := []nic.SendWR{write(0), write(1), bad, write(3)}
		if posted, err := th.PostSendBatch(qp, wrs); posted != 2 || !errors.Is(err, nic.ErrInlineTooLarge) {
			t.Errorf("chain with a bad third WR: posted %d, err %v; want 2, %v", posted, err, nic.ErrInlineTooLarge)
		}
	})
	if mmio != 1 || wqes != 2 {
		t.Errorf("chain with a bad third WR: %d doorbells, %d WQEs sent; want 1, 2", mmio, wqes)
	}
	zero := string(make([]byte, 8))
	for i, want := range []string{"abcdefgh", "abcdefgh", zero, zero} {
		if got := string(bytesAt(dst, i*64, 8)); got != want {
			t.Errorf("after the bad chain, slot %d holds %q, want %q", i, got, want)
		}
	}

	mmio, cpu, wqes = post(func(th *host.Thread) {
		if err := th.PostSend(qp, write(0)); err != nil {
			t.Error(err)
		}
	})
	if mmio != 1 || cpu != base+100 || wqes != 1 {
		t.Errorf("PostSend: %d doorbells, %d ns, %d WQEs sent; want 1, %d, 1", mmio, cpu, wqes, base+100)
	}
}

// TestWaitSignalCountsOverlap: a park absorbs the deferred residue on a
// core (UseAsync); when the thread is woken before that charge has run
// out, the remainder is one thread holding two cores, and cpu.overlap_ns
// records it. Counting moves no virtual time and allocates nothing.
func TestWaitSignalCountsOverlap(t *testing.T) {
	c, h := newHost(t)
	sig := sim.NewSignal(c.Env)
	wake := sig.Broadcast
	var woke []sim.Time
	var allocs float64
	h.Spawn("w", func(th *host.Thread) {
		park := func() {
			th.BeginWork()
			th.Work(1000)
			th.EndWorkLazy()
			th.WaitSignal(sig, sim.Millisecond)
		}
		c.Env.At(300, wake)
		park() // woken 300 ns into its 1000 ns residue: 700 ns overlap
		woke = append(woke, th.P.Now())
		park() // times out long after its residue ran out: none
		woke = append(woke, th.P.Now())
		// AllocsPerRun parks twice (a warm-up and the measured run), each
		// woken 10 ns into 1000 ns of residue.
		allocs = testing.AllocsPerRun(1, func() {
			c.Env.At(10, wake)
			park()
		})
	})
	c.Env.Run()
	if want := []sim.Time{300, 300 + sim.Millisecond}; len(woke) != 2 || woke[0] != want[0] || woke[1] != want[1] {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if want := uint64(700 + 2*990); h.CPUOverlapNs != want {
		t.Fatalf("overlap_ns = %d, want %d", h.CPUOverlapNs, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per park, want 0", allocs)
	}
}

// bytesAt returns a copy of region r's bytes [off, off+n).
func bytesAt(r *memory.Region, off, n int) []byte {
	b := make([]byte, n)
	r.ReadAt(b, int64(off))
	return b
}
