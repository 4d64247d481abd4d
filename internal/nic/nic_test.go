package nic_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// pair builds a 2-host cluster with a connected QP pair of the given type
// and a remotely writable/readable region on host 1.
type pairEnv struct {
	c          *cluster.Cluster
	qpA, qpB   *nic.QP
	cqA, cqB   *nic.CQ
	rcqA, rcqB *nic.CQ
	srv        *memory.Region // on host 1
	cli        *memory.Region // on host 0
}

func newPair(t *testing.T, typ nic.QPType) *pairEnv {
	t.Helper()
	c := cluster.New(cluster.Default(2))
	a, b := c.Hosts[0], c.Hosts[1]
	pe := &pairEnv{
		c:   c,
		cqA: a.NIC.CreateCQ(), rcqA: a.NIC.CreateCQ(),
		cqB: b.NIC.CreateCQ(), rcqB: b.NIC.CreateCQ(),
	}
	pe.qpA = a.NIC.CreateQP(typ, pe.cqA, pe.rcqA)
	pe.qpB = b.NIC.CreateQP(typ, pe.cqB, pe.rcqB)
	if typ != nic.UD {
		if err := nic.Connect(pe.qpA, pe.qpB); err != nil {
			t.Fatal(err)
		}
	}
	pe.srv = b.Mem.Register(1<<20, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)
	pe.cli = a.Mem.Register(1<<20, memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite)
	t.Cleanup(c.Close)
	return pe
}

func TestRCWriteDeliversDataAndCompletion(t *testing.T) {
	pe := newPair(t, nic.RC)
	poke(pe.cli, 0, []byte("hello rdma"))
	err := pe.qpA.PostSend(nic.SendWR{
		WRID: 7, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 10,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	if got := string(peek(pe.srv, 64, 10)); got != "hello rdma" {
		t.Fatalf("server memory = %q", got)
	}
	cqes := pe.cqA.Poll(10)
	if len(cqes) != 1 {
		t.Fatalf("completions = %d, want 1 (write is acked)", len(cqes))
	}
	if cqes[0].WRID != 7 || cqes[0].Status != nic.CQOK || cqes[0].Op != nic.OpWrite {
		t.Fatalf("cqe = %+v", cqes[0])
	}
}

func TestRCWriteLatencyIsPlausible(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 32,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	end := pe.c.Env.Run()
	// One-way ≈ engine 50 + QPC/WQE misses 800 + payload DMA 400 + wire
	// ~310; ack adds another ~310 + 5. Expect a couple of microseconds.
	if end < 1000 || end > 4000 {
		t.Fatalf("write completion at %d ns, want 1–4 µs", end)
	}
}

func TestUnsignaledWriteNoCompletion(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	if n := pe.cqA.Len(); n != 0 {
		t.Fatalf("unsignaled write produced %d completions", n)
	}
}

func TestRCWriteImmConsumesRecvAndDeliversImm(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.qpB.PostRecv(nic.RecvWR{WRID: 42})
	poke(pe.cli, 0, []byte("imm"))
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWriteImm, Imm: 0xdead,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 3,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	cqes := pe.rcqB.Poll(10)
	if len(cqes) != 1 {
		t.Fatalf("recv completions = %d, want 1", len(cqes))
	}
	e := cqes[0]
	if e.WRID != 42 || !e.ImmValid || e.Imm != 0xdead || e.ByteLen != 3 {
		t.Fatalf("cqe = %+v", e)
	}
	if string(peek(pe.srv, 0, 3)) != "imm" {
		t.Fatal("payload not written")
	}
}

func TestRCSendRecv(t *testing.T) {
	pe := newPair(t, nic.RC)
	recvBuf := pe.c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	pe.qpB.PostRecv(nic.RecvWR{WRID: 1, LKey: recvBuf.LKey, LAddr: recvBuf.Base, Len: 4096})
	poke(pe.cli, 0, []byte("two-sided"))
	pe.qpA.PostSend(nic.SendWR{WRID: 2, Op: nic.OpSend, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 9})
	pe.c.Env.Run()
	if got := string(peek(recvBuf, 0, 9)); got != "two-sided" {
		t.Fatalf("recv buffer = %q", got)
	}
	if n := pe.rcqB.Len(); n != 1 {
		t.Fatalf("recv CQ has %d entries", n)
	}
	if n := pe.cqA.Len(); n != 1 {
		t.Fatalf("send CQ has %d entries (RC send must be acked)", n)
	}
}

func TestRCRead(t *testing.T) {
	pe := newPair(t, nic.RC)
	poke(pe.srv, 128, []byte("remote-data"))
	pe.qpA.PostSend(nic.SendWR{WRID: 9, Op: nic.OpRead, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base + 512, Len: 11,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + 128})
	pe.c.Env.Run()
	if got := string(peek(pe.cli, 512, 11)); got != "remote-data" {
		t.Fatalf("read returned %q", got)
	}
	cqes := pe.cqA.Poll(10)
	if len(cqes) != 1 || cqes[0].Status != nic.CQOK || cqes[0].ByteLen != 11 {
		t.Fatalf("cqes = %+v", cqes)
	}
}

func TestAtomicCompareSwap(t *testing.T) {
	pe := newPair(t, nic.RC)
	poke(pe.srv, 0, binary.LittleEndian.AppendUint64(nil, 100))
	pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpCompSwap, Signaled: true,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base, Compare: 100, Swap: 777})
	pe.c.Env.Run()
	if v := binary.LittleEndian.Uint64(peek(pe.srv, 0, 8)); v != 777 {
		t.Fatalf("CAS result = %d, want 777", v)
	}
	cqes := pe.cqA.Poll(1)
	if len(cqes) != 1 || cqes[0].AtomicOld != 100 {
		t.Fatalf("cqes = %+v", cqes)
	}
	// Failing CAS: compare mismatches, memory unchanged, old value returned.
	pe.qpA.PostSend(nic.SendWR{WRID: 2, Op: nic.OpCompSwap, Signaled: true,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base, Compare: 100, Swap: 1})
	pe.c.Env.Run()
	if v := binary.LittleEndian.Uint64(peek(pe.srv, 0, 8)); v != 777 {
		t.Fatalf("failed CAS modified memory: %d", v)
	}
	cqes = pe.cqA.Poll(1)
	if len(cqes) != 1 || cqes[0].AtomicOld != 777 {
		t.Fatalf("cqes = %+v", cqes)
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	pe := newPair(t, nic.RC)
	poke(pe.srv, 0, binary.LittleEndian.AppendUint64(nil, 5))
	for i := 0; i < 3; i++ {
		pe.qpA.PostSend(nic.SendWR{Op: nic.OpFetchAdd, Signaled: true,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base, Add: 10})
	}
	pe.c.Env.Run()
	if v := binary.LittleEndian.Uint64(peek(pe.srv, 0, 8)); v != 35 {
		t.Fatalf("FAA result = %d, want 35", v)
	}
	cqes := pe.cqA.Poll(10)
	if len(cqes) != 3 {
		t.Fatalf("completions = %d", len(cqes))
	}
	if cqes[0].AtomicOld != 5 || cqes[1].AtomicOld != 15 || cqes[2].AtomicOld != 25 {
		t.Fatalf("old values: %d %d %d", cqes[0].AtomicOld, cqes[1].AtomicOld, cqes[2].AtomicOld)
	}
}

func TestUDSendRecv(t *testing.T) {
	pe := newPair(t, nic.UD)
	recvBuf := pe.c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	pe.qpB.PostRecv(nic.RecvWR{WRID: 1, LKey: recvBuf.LKey, LAddr: recvBuf.Base, Len: 4096})
	poke(pe.cli, 0, []byte("datagram"))
	err := pe.qpA.PostSend(nic.SendWR{Op: nic.OpSend, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		DstNIC: 1, DstQPN: pe.qpB.QPN})
	if err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	if got := string(peek(recvBuf, 0, 8)); got != "datagram" {
		t.Fatalf("recv = %q", got)
	}
	cqes := pe.rcqB.Poll(1)
	if len(cqes) != 1 {
		t.Fatal("no recv completion")
	}
	if cqes[0].SrcNIC != 0 || cqes[0].SrcQPN != pe.qpA.QPN {
		t.Fatalf("source info = %+v", cqes[0])
	}
}

func TestUDSendWithNoRecvIsDropped(t *testing.T) {
	pe := newPair(t, nic.UD)
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpSend,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		DstNIC: 1, DstQPN: pe.qpB.QPN})
	pe.c.Env.Run()
	if pe.c.Hosts[1].NIC.Stats.RNRDrops != 1 {
		t.Fatalf("RNRDrops = %d, want 1", pe.c.Hosts[1].NIC.Stats.RNRDrops)
	}
	if pe.qpB.Err() != nil {
		t.Fatal("UD recv underrun must not error the QP")
	}
}

// Table 1 conformance: verbs × transport modes.
func TestTable1VerbMatrix(t *testing.T) {
	cases := []struct {
		typ nic.QPType
		op  nic.Op
		ok  bool
	}{
		{nic.RC, nic.OpSend, true},
		{nic.RC, nic.OpWrite, true},
		{nic.RC, nic.OpWriteImm, true},
		{nic.RC, nic.OpRead, true},
		{nic.RC, nic.OpCompSwap, true},
		{nic.RC, nic.OpFetchAdd, true},
		{nic.UC, nic.OpSend, true},
		{nic.UC, nic.OpWrite, true},
		{nic.UC, nic.OpWriteImm, true},
		{nic.UC, nic.OpRead, false},
		{nic.UC, nic.OpCompSwap, false},
		{nic.UC, nic.OpFetchAdd, false},
		{nic.UD, nic.OpSend, true},
		{nic.UD, nic.OpWrite, false},
		{nic.UD, nic.OpWriteImm, false},
		{nic.UD, nic.OpRead, false},
		{nic.UD, nic.OpCompSwap, false},
		{nic.UD, nic.OpFetchAdd, false},
	}
	for _, tc := range cases {
		pe := newPair(t, tc.typ)
		wr := nic.SendWR{Op: tc.op, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base, DstNIC: 1, DstQPN: pe.qpB.QPN}
		err := pe.qpA.PostSend(wr)
		if tc.ok && err != nil {
			t.Errorf("%v %v: unexpected error %v", tc.typ, tc.op, err)
		}
		if !tc.ok && !errors.Is(err, nic.ErrVerbUnsupported) {
			t.Errorf("%v %v: err = %v, want ErrVerbUnsupported", tc.typ, tc.op, err)
		}
		pe.c.Env.Run()
	}
}

// Table 1 conformance: MTU limits (UD 4 KB, RC/UC 2 GB).
func TestTable1MTULimits(t *testing.T) {
	pe := newPair(t, nic.UD)
	err := pe.qpA.PostSend(nic.SendWR{Op: nic.OpSend, Len: 4097,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, DstNIC: 1, DstQPN: pe.qpB.QPN})
	if !errors.Is(err, nic.ErrMTU) {
		t.Fatalf("UD 4097B: err = %v, want ErrMTU", err)
	}
	err = pe.qpA.PostSend(nic.SendWR{Op: nic.OpSend, Len: 4096,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, DstNIC: 1, DstQPN: pe.qpB.QPN})
	if errors.Is(err, nic.ErrMTU) {
		t.Fatal("UD 4096B must be allowed")
	}
	pe.c.Env.Run()

	rc := newPair(t, nic.RC)
	err = rc.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, Len: (2 << 30) + 1,
		LKey: rc.cli.LKey, LAddr: rc.cli.Base, RKey: rc.srv.RKey, RAddr: rc.srv.Base})
	if !errors.Is(err, nic.ErrMTU) {
		t.Fatalf("RC >2GB: err = %v, want ErrMTU", err)
	}
}

func TestInlineTooLargeRejected(t *testing.T) {
	pe := newPair(t, nic.RC)
	err := pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, Inline: true, Len: 189,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	if !errors.Is(err, nic.ErrInlineTooLarge) {
		t.Fatalf("err = %v, want ErrInlineTooLarge", err)
	}
}

func TestInlineCapturesAtPostTime(t *testing.T) {
	pe := newPair(t, nic.RC)
	poke(pe.cli, 0, []byte("AAAA"))
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, Inline: true, Len: 4,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	// Scribble over the source immediately after posting: the inline copy
	// must not see it.
	poke(pe.cli, 0, []byte("BBBB"))
	pe.c.Env.Run()
	if got := string(peek(pe.srv, 0, 4)); got != "AAAA" {
		t.Fatalf("inline payload = %q, want AAAA (captured at post)", got)
	}
}

func TestUnconnectedRCRejected(t *testing.T) {
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	cq := c.Hosts[0].NIC.CreateCQ()
	qp := c.Hosts[0].NIC.CreateQP(nic.RC, cq, cq)
	err := qp.PostSend(nic.SendWR{Op: nic.OpWrite})
	if !errors.Is(err, nic.ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestRemoteAccessViolationErrorsQP(t *testing.T) {
	pe := newPair(t, nic.RC)
	ro := pe.c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.RemoteRead)
	pe.qpA.PostSend(nic.SendWR{WRID: 3, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: ro.RKey, RAddr: ro.Base})
	pe.c.Env.Run()
	cqes := pe.cqA.Poll(10)
	if len(cqes) != 1 || cqes[0].Status != nic.CQRemoteAccessError {
		t.Fatalf("cqes = %+v, want remote access error", cqes)
	}
	if pe.qpA.Err() == nil {
		t.Fatal("QP must enter error state")
	}
	if err := pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite}); err == nil {
		t.Fatal("posting on errored QP must fail")
	}
}

func TestRCOrderingManyWrites(t *testing.T) {
	pe := newPair(t, nic.RC)
	// 100 writes to consecutive slots; all must land, last-writer-wins per
	// slot, and completions arrive in post order.
	for i := 0; i < 100; i++ {
		poke(pe.cli, i, []byte{byte(i + 1)})
		pe.qpA.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(i), Len: 1,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i)})
	}
	pe.c.Env.Run()
	for i := 0; i < 100; i++ {
		if pe.srv.ByteAt(i) != byte(i+1) {
			t.Fatalf("slot %d = %d", i, pe.srv.ByteAt(i))
		}
	}
	cqes := pe.cqA.Poll(200)
	if len(cqes) != 100 {
		t.Fatalf("completions = %d", len(cqes))
	}
	for i, e := range cqes {
		if e.WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d (order violated)", i, e.WRID)
		}
	}
}

func TestRCRetransmitAfterDrop(t *testing.T) {
	pe := newPair(t, nic.RC)
	// Drop the first data packet at the receiver; the NAK/retransmit path
	// must recover and preserve ordering.
	pe.c.Hosts[1].NIC.DropNextDataPackets(1)
	for i := 0; i < 10; i++ {
		poke(pe.cli, i, []byte{byte(0x40 + i)})
		pe.qpA.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(i), Len: 1,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i)})
	}
	pe.c.Env.Run()
	for i := 0; i < 10; i++ {
		if pe.srv.ByteAt(i) != byte(0x40+i) {
			t.Fatalf("slot %d = %#x after retransmit", i, pe.srv.ByteAt(i))
		}
	}
	if pe.cqA.Len() != 10 {
		t.Fatalf("completions = %d, want 10", pe.cqA.Len())
	}
	st := pe.c.Hosts[0].NIC.Stats
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if pe.c.Hosts[1].NIC.Stats.NAKs == 0 {
		t.Fatal("no NAK recorded")
	}
}

func TestUDLossDropsSilently(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	plane := c.InstallFaults(faults.DropAll("ud-loss", 1.0)) // drop everything
	a, b := c.Hosts[0], c.Hosts[1]
	cqA, cqB := a.NIC.CreateCQ(), b.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.UD, cqA, cqA)
	qb := b.NIC.CreateQP(nic.UD, cqB, cqB)
	buf := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	rbuf := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	qb.PostRecv(nic.RecvWR{LKey: rbuf.LKey, LAddr: rbuf.Base, Len: 64})
	qa.PostSend(nic.SendWR{Op: nic.OpSend, LKey: buf.LKey, LAddr: buf.Base, Len: 8,
		DstNIC: 1, DstQPN: qb.QPN})
	c.Env.Run()
	if plane.Stats.Drops != 1 {
		t.Fatalf("fault-plane drops = %d, want 1", plane.Stats.Drops)
	}
	if cqB.Len() != 0 {
		t.Fatal("dropped datagram produced a completion")
	}
}

func TestQPCCacheThrashing(t *testing.T) {
	// With more QPs than QPC cache entries, round-robin posting must miss
	// almost always; with few QPs it must hit almost always.
	run := func(numQPs int) (hitRate float64, rdCur uint64) {
		c := cluster.New(cluster.Default(2))
		defer c.Close()
		a, b := c.Hosts[0], c.Hosts[1]
		cq := a.NIC.CreateCQ()
		cqB := b.NIC.CreateCQ()
		loc := a.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		rem := b.Mem.Register(1<<20, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
		var qps []*nic.QP
		for i := 0; i < numQPs; i++ {
			qa := a.NIC.CreateQP(nic.RC, cq, cq)
			qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
			nic.Connect(qa, qb)
			qps = append(qps, qa)
		}
		for round := 0; round < 20; round++ {
			for _, qp := range qps {
				qp.PostSend(nic.SendWR{Op: nic.OpWrite,
					LKey: loc.LKey, LAddr: loc.Base, Len: 32,
					RKey: rem.RKey, RAddr: rem.Base})
			}
			c.Env.Run()
		}
		qpc, _, _ := a.NIC.CacheHitRates()
		return qpc, a.Bus.Snapshot().PCIeRdCur
	}
	hot, rdHot := run(8)
	cold, rdCold := run(256) // QPC cache holds 64
	if hot < 0.8 {
		t.Fatalf("8 QPs: QPC hit rate %.2f, want > 0.8", hot)
	}
	if cold > 0.2 {
		t.Fatalf("256 QPs: QPC hit rate %.2f, want < 0.2 (thrash)", cold)
	}
	if rdCold <= rdHot*2 {
		t.Fatalf("PCIe reads under thrash (%d) should far exceed hot case (%d)", rdCold, rdHot)
	}
}

func TestMTTHugePagesVs4K(t *testing.T) {
	// Writing across a large region registered with 4 KB pages must churn
	// the MTT cache far more than the same region on 2 MB pages.
	run := func(pageSize int) uint64 {
		c := cluster.New(cluster.Default(2))
		defer c.Close()
		a, b := c.Hosts[0], c.Hosts[1]
		cq := a.NIC.CreateCQ()
		cqB := b.NIC.CreateCQ()
		qa := a.NIC.CreateQP(nic.RC, cq, cq)
		qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
		nic.Connect(qa, qb)
		loc := a.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		rem := b.Mem.Register(64<<20, pageSize, memory.LocalWrite|memory.RemoteWrite)
		// Scatter writes over 16 K distinct pages' worth of addresses.
		for i := 0; i < 4096; i++ {
			addr := rem.Base + uint64(i*16011)%uint64(rem.Len()-64)
			qa.PostSend(nic.SendWR{Op: nic.OpWrite,
				LKey: loc.LKey, LAddr: loc.Base, Len: 32,
				RKey: rem.RKey, RAddr: addr})
			if i%64 == 0 {
				c.Env.Run()
			}
		}
		c.Env.Run()
		return b.NIC.Stats.MTTMisses
	}
	miss4k := run(memory.PageSize4K)
	missHuge := run(memory.PageSize2M)
	if miss4k < missHuge*10 {
		t.Fatalf("4K misses %d vs huge misses %d: expected ≥10×", miss4k, missHuge)
	}
}

func TestWatchRegionWakesOnDMAWrite(t *testing.T) {
	pe := newPair(t, nic.RC)
	sig := sim.NewSignal(pe.c.Env)
	pe.c.Hosts[1].NIC.WatchRegion(pe.srv.RKey, sig)
	woken := false
	pe.c.Env.Spawn("waiter", func(p *sim.Proc) {
		sig.Wait(p)
		woken = true
		// Data must be visible when the watch fires.
		if pe.srv.ByteAt(0) != 'X' {
			t.Error("watch fired before data visible")
		}
	})
	poke(pe.cli, 0, []byte{'X'})
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 1,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	if !woken {
		t.Fatal("watch signal never fired")
	}
}

func TestPCIeCountersOnWrite(t *testing.T) {
	pe := newPair(t, nic.RC)
	before := pe.c.Hosts[1].Bus.Snapshot()
	// 64-byte aligned write: exactly one full-line device write.
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 64,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	d := pe.c.Hosts[1].Bus.Snapshot().Sub(before)
	if d.ItoM < 1 {
		t.Fatalf("ItoM = %d, want ≥1 full-line write", d.ItoM)
	}
	// 8-byte write: one partial line (RFO).
	before = pe.c.Hosts[1].Bus.Snapshot()
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + 4096})
	pe.c.Env.Run()
	d = pe.c.Hosts[1].Bus.Snapshot().Sub(before)
	if d.RFO != 1 {
		t.Fatalf("RFO = %d, want 1 partial-line write", d.RFO)
	}
	// Sender side: payload DMA read recorded.
	if pe.c.Hosts[0].Bus.Snapshot().PCIeRdCur == 0 {
		t.Fatal("sender recorded no DMA reads")
	}
}

func TestConnectRejectsUDAndMismatched(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cqA, cqB := c.Hosts[0].NIC.CreateCQ(), c.Hosts[1].NIC.CreateCQ()
	ud := c.Hosts[0].NIC.CreateQP(nic.UD, cqA, cqA)
	rc := c.Hosts[1].NIC.CreateQP(nic.RC, cqB, cqB)
	if err := nic.Connect(ud, rc); err == nil {
		t.Fatal("connecting UD must fail")
	}
	uc := c.Hosts[0].NIC.CreateQP(nic.UC, cqA, cqA)
	if err := nic.Connect(uc, rc); err == nil {
		t.Fatal("connecting UC to RC must fail")
	}
}

func TestTornWriteValidByteCommitsLast(t *testing.T) {
	// With torn writes enabled, a poller between the two commit steps must
	// see the final byte still unset — the property the paper's
	// right-aligned layout (trailing Valid byte) depends on.
	cfg := cluster.Default(2)
	cfg.NIC.TornWriteDelay = 500
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
	poke(src, 0, bytes.Repeat([]byte{0xAA}, 16))
	qa.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: src.LKey, LAddr: src.Base, Len: 16,
		RKey: dst.RKey, RAddr: dst.Base})
	// Observe the destination when the first half lands (the watch fires
	// on the partial commit).
	sig := sim.NewSignal(c.Env)
	b.NIC.WatchRegion(dst.RKey, sig)
	sawPartial := false
	c.Env.Spawn("observer", func(p *sim.Proc) {
		sig.Wait(p)
		if dst.ByteAt(0) == 0xAA && dst.ByteAt(15) != 0xAA {
			sawPartial = true
		}
	})
	c.Env.Run()
	if !sawPartial {
		t.Fatal("observer never saw the torn intermediate state")
	}
	if dst.ByteAt(15) != 0xAA {
		t.Fatal("final byte never committed")
	}
}

func TestTornWritesDoNotBreakRightAlignedProtocol(t *testing.T) {
	// End-to-end: a RawWrite RPC echo must stay byte-correct when every
	// inbound write is torn, because both request and response formats put
	// their Valid byte at the highest address.
	cfg := cluster.Default(2)
	cfg.NIC.TornWriteDelay = 300
	c := cluster.New(cfg)
	defer c.Close()
	_ = c // transport-level verification lives in rpctest; here we check
	// the primitive: a write whose consumer polls the last byte.
	a, b := c.Hosts[0], c.Hosts[1]
	cqA := a.NIC.CreateCQ()
	qa := a.NIC.CreateQP(nic.RC, cqA, cqA)
	cqB := b.NIC.CreateCQ()
	qb := b.NIC.CreateQP(nic.RC, cqB, cqB)
	nic.Connect(qa, qb)
	src := a.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)

	// Encode a right-aligned message client-side and write it.
	block := make([]byte, 256)
	if err := rpcwire.Encode(block, []byte("torn-but-safe"), 0); err != nil {
		t.Fatal(err)
	}
	poke(src, 0, block)
	qa.PostSend(nic.SendWR{Op: nic.OpWrite,
		LKey: src.LKey, LAddr: src.Base, Len: 256,
		RKey: dst.RKey, RAddr: dst.Base})

	// Server-side poller: wakes on every commit step; must never decode a
	// partial message.
	sig := sim.NewSignal(c.Env)
	b.NIC.WatchRegion(dst.RKey, sig)
	var got []byte
	decodes := 0
	c.Env.Spawn("poller", func(p *sim.Proc) {
		for got == nil {
			blk := peek(dst, 0, 256)
			if rpcwire.Valid(blk) {
				payload, _, err := rpcwire.Decode(blk)
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				got = append([]byte(nil), payload...)
				decodes++
				return
			}
			if sig.WaitTimeout(p, 100*sim.Microsecond) {
				return // timeout safety
			}
		}
	})
	c.Env.Run()
	if string(got) != "torn-but-safe" {
		t.Fatalf("decoded %q despite torn writes", got)
	}
}
