package nic_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

func TestCQOverrunPanics(t *testing.T) {
	// CQ overrun is fatal on real hardware; the model must fail loudly,
	// not drop completions silently.
	cfg := cluster.Default(2)
	cfg.NIC.CQDepth = 4
	c := cluster.New(cfg)
	defer c.Close()
	a, b := c.Hosts[0], c.Hosts[1]
	cqA := a.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.RC, cqA, cqA)
	cqB := b.NIC.CreateCQ()
	qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
	nic.Connect(qa, qb)
	src := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	for i := 0; i < 16; i++ {
		qa.PostSend(nic.SendWR{Op: nic.OpWrite, Signaled: true,
			LKey: src.LKey, LAddr: src.Base, Len: 8,
			RKey: dst.RKey, RAddr: dst.Base})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected CQ overrun panic")
		}
	}()
	c.Env.Run()
}

func TestDestroyQPDropsTraffic(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	a, b := c.Hosts[0], c.Hosts[1]
	cqA := a.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.RC, cqA, cqA)
	cqB := b.NIC.CreateCQ()
	qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
	nic.Connect(qa, qb)
	src := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	// Destroy the destination QP, then write into the void: nothing may
	// crash, data must not land, no completion may arrive (no ack).
	b.NIC.DestroyQP(qb)
	poke(src, 0, []byte("ghost"))
	qa.PostSend(nic.SendWR{Op: nic.OpWrite, Signaled: true,
		LKey: src.LKey, LAddr: src.Base, Len: 5,
		RKey: dst.RKey, RAddr: dst.Base})
	c.Env.Run()
	if string(peek(dst, 0, 5)) == "ghost" {
		t.Fatal("write landed on a destroyed QP")
	}
	if cqA.Len() != 0 {
		t.Fatal("completion for a write into a destroyed QP")
	}
}

func TestDeregisteredRegionRejectsRemoteAccess(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Hosts[1].Mem.Deregister(pe.srv)
	pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	cqes := pe.cqA.Poll(4)
	if len(cqes) != 1 || cqes[0].Status != nic.CQRemoteAccessError {
		t.Fatalf("cqes = %+v, want remote access error", cqes)
	}
}

func TestRetransmitBurstLoss(t *testing.T) {
	// Drop a burst of 5 consecutive data packets: go-back-N must recover
	// all of them in order.
	pe := newPair(t, nic.RC)
	pe.c.Hosts[1].NIC.DropNextDataPackets(5)
	for i := 0; i < 20; i++ {
		poke(pe.cli, i, []byte{byte(i + 1)})
		pe.qpA.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(i), Len: 1,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i)})
	}
	pe.c.Env.Run()
	for i := 0; i < 20; i++ {
		if pe.srv.ByteAt(i) != byte(i+1) {
			t.Fatalf("slot %d = %d after burst loss", i, pe.srv.ByteAt(i))
		}
	}
	if got := pe.cqA.Len(); got != 20 {
		t.Fatalf("completions = %d, want 20", got)
	}
	if pe.c.Hosts[0].NIC.Stats.Retransmits < 5 {
		t.Fatalf("Retransmits = %d, want ≥5", pe.c.Hosts[0].NIC.Stats.Retransmits)
	}
}

func TestRepeatedLossEpisodes(t *testing.T) {
	// Loss, recovery, more loss: sequencing state must survive multiple
	// NAK episodes on one QP.
	pe := newPair(t, nic.RC)
	for round := 0; round < 3; round++ {
		pe.c.Hosts[1].NIC.DropNextDataPackets(2)
		base := uint64(round * 32)
		for i := uint64(0); i < 8; i++ {
			poke(pe.cli, int(base+i), []byte{byte(0x10*round + int(i) + 1)})
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, Signaled: true,
				LKey: pe.cli.LKey, LAddr: pe.cli.Base + base + i, Len: 1,
				RKey: pe.srv.RKey, RAddr: pe.srv.Base + base + i})
		}
		pe.c.Env.Run()
	}
	for round := 0; round < 3; round++ {
		base := round * 32
		for i := 0; i < 8; i++ {
			want := byte(0x10*round + i + 1)
			if pe.srv.ByteAt(base+i) != want {
				t.Fatalf("round %d slot %d = %#x, want %#x", round, i, pe.srv.ByteAt(base+i), want)
			}
		}
	}
}

func TestHighUDLossStillDeliversSome(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	plane := c.InstallFaults(faults.DropAll("ud-loss", 0.5))
	a, b := c.Hosts[0], c.Hosts[1]
	cqA, cqB := a.NIC.CreateCQ(), b.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.UD, cqA, cqA)
	qb := b.NIC.CreateQP(nic.UD, cqB, cqB)
	src := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	ring := b.Mem.Register(64*256, memory.PageSize2M, memory.LocalWrite)
	for i := 0; i < 256; i++ {
		qb.PostRecv(nic.RecvWR{WRID: uint64(i), LKey: ring.LKey,
			LAddr: ring.Base + uint64(i*64), Len: 64})
	}
	for i := 0; i < 200; i++ {
		qa.PostSend(nic.SendWR{Op: nic.OpSend, LKey: src.LKey, LAddr: src.Base, Len: 16,
			DstNIC: 1, DstQPN: qb.QPN})
	}
	c.Env.Run()
	delivered := cqB.Len()
	dropped := int(plane.Stats.Drops)
	if delivered+dropped != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", delivered, dropped)
	}
	if delivered < 50 || delivered > 150 {
		t.Fatalf("delivered = %d with 50%% loss, want ~100", delivered)
	}
}

func TestWatchSurvivesManyWriters(t *testing.T) {
	// Many concurrent writers into one watched region: every write must
	// eventually wake the watcher; the watcher must observe all data.
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	srv := c.Hosts[0]
	reg := srv.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	sig := sim.NewSignal(c.Env)
	srv.NIC.WatchRegion(reg.RKey, sig)
	const writers = 9
	for w := 0; w < writers; w++ {
		w := w
		h := c.Hosts[1+w%3]
		src := h.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
		cq := h.NIC.CreateCQ()
		qp := h.NIC.CreateQP(nic.RC, cq, cq)
		scq := srv.NIC.CreateCQ()
		sqp := srv.NIC.CreateQP(nic.RC, scq, scq)
		nic.Connect(qp, sqp)
		poke(src, 0, []byte{byte(w + 1)})
		c.Env.SpawnAt(sim.Duration(w)*500, "writer", func(p *sim.Proc) {
			qp.PostSend(nic.SendWR{Op: nic.OpWrite,
				LKey: src.LKey, LAddr: src.Base, Len: 1,
				RKey: reg.RKey, RAddr: reg.Base + uint64(w)})
		})
	}
	seen := 0
	c.Env.Spawn("watcher", func(p *sim.Proc) {
		for seen < writers {
			n := 0
			for w := 0; w < writers; w++ {
				if reg.ByteAt(w) == byte(w+1) {
					n++
				}
			}
			seen = n
			if seen < writers && sig.WaitTimeout(p, sim.Millisecond) {
				return
			}
		}
	})
	c.Env.Run()
	if seen != writers {
		t.Fatalf("watcher saw %d/%d writes", seen, writers)
	}
}
