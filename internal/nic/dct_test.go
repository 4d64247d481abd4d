package nic_test

import (
	"errors"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// dctPair builds a 3-host cluster with a DCT initiator on host 0 and DCT
// targets (with writable regions) on hosts 1 and 2.
type dctEnv struct {
	c   *cluster.Cluster
	ini *nic.QP
	cq  *nic.CQ
	tgt [2]*nic.QP
	rgn [2]*memory.Region
	src *memory.Region
}

func newDCT(t *testing.T) *dctEnv {
	t.Helper()
	c := cluster.New(cluster.Default(3))
	t.Cleanup(c.Close)
	e := &dctEnv{c: c}
	e.cq = c.Hosts[0].NIC.CreateCQ()
	e.ini = c.Hosts[0].NIC.CreateDCTInitiator(e.cq, e.cq)
	e.src = c.Hosts[0].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	for i := 0; i < 2; i++ {
		h := c.Hosts[1+i]
		tcq := h.NIC.CreateCQ()
		e.tgt[i] = h.NIC.CreateDCTTarget(tcq, tcq)
		e.rgn[i] = h.Mem.Register(4096, memory.PageSize4K,
			memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite)
	}
	return e
}

func TestDCTWriteToMultipleTargetsWithOneQP(t *testing.T) {
	e := newDCT(t)
	poke(e.src, 0, []byte("dct-data"))
	for i := 0; i < 2; i++ {
		err := e.ini.PostSend(nic.SendWR{
			WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
			LKey: e.src.LKey, LAddr: e.src.Base, Len: 8,
			RKey: e.rgn[i].RKey, RAddr: e.rgn[i].Base,
			DstNIC: 1 + i, DstQPN: e.tgt[i].QPN,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.c.Env.Run()
	for i := 0; i < 2; i++ {
		if string(peek(e.rgn[i], 0, 8)) != "dct-data" {
			t.Fatalf("target %d did not receive data", i)
		}
	}
	if e.cq.Len() != 2 {
		t.Fatalf("completions = %d, want 2 (DCT is reliable)", e.cq.Len())
	}
	// Two distinct targets → two context creations.
	if e.c.Hosts[0].NIC.Stats.DCTConnects != 2 {
		t.Fatalf("DCTConnects = %d, want 2", e.c.Hosts[0].NIC.Stats.DCTConnects)
	}
}

func TestDCTStickyTargetNoReconnect(t *testing.T) {
	e := newDCT(t)
	for i := 0; i < 10; i++ {
		e.ini.PostSend(nic.SendWR{Op: nic.OpWrite,
			LKey: e.src.LKey, LAddr: e.src.Base, Len: 8,
			RKey: e.rgn[0].RKey, RAddr: e.rgn[0].Base,
			DstNIC: 1, DstQPN: e.tgt[0].QPN})
	}
	e.c.Env.Run()
	if got := e.c.Hosts[0].NIC.Stats.DCTConnects; got != 1 {
		t.Fatalf("DCTConnects = %d, want 1 (same target stays connected)", got)
	}
}

func TestDCTAlternatingTargetsReconnectsEveryTime(t *testing.T) {
	e := newDCT(t)
	for i := 0; i < 8; i++ {
		tg := i % 2
		e.ini.PostSend(nic.SendWR{Op: nic.OpWrite,
			LKey: e.src.LKey, LAddr: e.src.Base, Len: 8,
			RKey: e.rgn[tg].RKey, RAddr: e.rgn[tg].Base,
			DstNIC: 1 + tg, DstQPN: e.tgt[tg].QPN})
	}
	e.c.Env.Run()
	if got := e.c.Hosts[0].NIC.Stats.DCTConnects; got != 8 {
		t.Fatalf("DCTConnects = %d, want 8 (context destroyed on every switch)", got)
	}
}

func TestDCTRead(t *testing.T) {
	e := newDCT(t)
	poke(e.rgn[1], 0, []byte("remote-bytes"))
	err := e.ini.PostSend(nic.SendWR{
		WRID: 7, Op: nic.OpRead, Signaled: true,
		LKey: e.src.LKey, LAddr: e.src.Base + 100, Len: 12,
		RKey: e.rgn[1].RKey, RAddr: e.rgn[1].Base,
		DstNIC: 2, DstQPN: e.tgt[1].QPN,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.c.Env.Run()
	if string(peek(e.src, 100, 12)) != "remote-bytes" {
		t.Fatalf("read returned %q", peek(e.src, 100, 12))
	}
}

func TestDCTLatencyPenaltyOnSwitch(t *testing.T) {
	// A switching workload must take measurably longer per op than a
	// sticky one (the §5.1 latency cost of context churn).
	run := func(alternate bool) sim.Time {
		e := newDCT(t)
		for i := 0; i < 50; i++ {
			tg := 0
			if alternate {
				tg = i % 2
			}
			e.ini.PostSend(nic.SendWR{Op: nic.OpWrite, Signaled: i == 49,
				LKey: e.src.LKey, LAddr: e.src.Base, Len: 32,
				RKey: e.rgn[tg].RKey, RAddr: e.rgn[tg].Base,
				DstNIC: 1 + tg, DstQPN: e.tgt[tg].QPN})
		}
		return e.c.Env.Run()
	}
	sticky := run(false)
	churn := run(true)
	if churn <= sticky {
		t.Fatalf("alternating (%d) must be slower than sticky (%d)", churn, sticky)
	}
}

func TestDCTTargetIsPassive(t *testing.T) {
	e := newDCT(t)
	err := e.tgt[0].PostSend(nic.SendWR{Op: nic.OpWrite})
	if !errors.Is(err, nic.ErrVerbUnsupported) {
		t.Fatalf("err = %v, want ErrVerbUnsupported", err)
	}
}

func TestDCTCannotStaticallyConnect(t *testing.T) {
	e := newDCT(t)
	if err := nic.Connect(e.ini, e.tgt[0]); err == nil {
		t.Fatal("static Connect of DCT QPs must fail")
	}
}

func TestDCTScalesToManyTargetsOneContext(t *testing.T) {
	// One initiator writing to 300 targets: the initiator's QPC working
	// set stays tiny (1 QP), unlike RC where 300 QPs thrash the cache.
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	cq := c.Hosts[0].NIC.CreateCQ()
	ini := c.Hosts[0].NIC.CreateDCTInitiator(cq, cq)
	src := c.Hosts[0].Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	type tgt struct {
		qpn  uint32
		nic  int
		rkey uint32
		addr uint64
	}
	var tgts []tgt
	for i := 0; i < 300; i++ {
		h := c.Hosts[1+i%3]
		tcq := h.NIC.CreateCQ()
		q := h.NIC.CreateDCTTarget(tcq, tcq)
		r := h.Mem.Register(64, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
		tgts = append(tgts, tgt{qpn: q.QPN, nic: h.NIC.ID(), rkey: r.RKey, addr: r.Base})
	}
	for round := 0; round < 3; round++ {
		for _, tg := range tgts {
			ini.PostSend(nic.SendWR{Op: nic.OpWrite,
				LKey: src.LKey, LAddr: src.Base, Len: 32,
				RKey: tg.rkey, RAddr: tg.addr, DstNIC: tg.nic, DstQPN: tg.qpn})
		}
		c.Env.Run()
	}
	qpc, _, _ := c.Hosts[0].NIC.CacheHitRates()
	if qpc < 0.9 {
		t.Fatalf("DCT initiator QPC hit rate = %.2f, want ≈1 (single context)", qpc)
	}
}

func TestDCTSendRecv(t *testing.T) {
	e := newDCT(t)
	rbuf := e.c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	e.tgt[0].PostRecv(nic.RecvWR{WRID: 5, LKey: rbuf.LKey, LAddr: rbuf.Base, Len: 4096})
	poke(e.src, 0, []byte("dct-send"))
	err := e.ini.PostSend(nic.SendWR{WRID: 1, Op: nic.OpSend, Signaled: true,
		LKey: e.src.LKey, LAddr: e.src.Base, Len: 8,
		DstNIC: 1, DstQPN: e.tgt[0].QPN})
	if err != nil {
		t.Fatal(err)
	}
	e.c.Env.Run()
	if string(peek(rbuf, 0, 8)) != "dct-send" {
		t.Fatalf("recv buffer = %q", peek(rbuf, 0, 8))
	}
	// Reliable: the sender must get an acked completion.
	if e.cq.Len() != 1 {
		t.Fatalf("sender completions = %d, want 1", e.cq.Len())
	}
	if e.tgt[0].RecvCQ.Len() != 1 {
		t.Fatal("no recv completion at the target")
	}
}
