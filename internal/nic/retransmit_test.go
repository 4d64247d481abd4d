package nic_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// TestTimeoutRecoversFinalPacketLoss loses the *last* (and only) packet of
// the send window. No later packet arrives to trigger a NAK, so only the
// requester's retransmit timeout can recover — the case that hangs forever
// with the timer disabled.
func TestTimeoutRecoversFinalPacketLoss(t *testing.T) {
	pe := newPair(t, nic.RC)
	a := pe.c.Hosts[0].NIC
	a.Cfg.RetransmitTimeout = 5 * sim.Microsecond
	pe.c.Hosts[1].NIC.DropNextDataPackets(1)
	poke(pe.cli, 0, []byte("lost+found"))
	if err := pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 10,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base}); err != nil {
		t.Fatal(err)
	}
	end := pe.c.Env.Run()
	if got := string(peek(pe.srv, 0, 10)); got != "lost+found" {
		t.Fatalf("server memory = %q after timeout recovery", got)
	}
	cqes := pe.cqA.Poll(4)
	if len(cqes) != 1 || cqes[0].Status != nic.CQOK {
		t.Fatalf("cqes = %+v, want one CQOK", cqes)
	}
	if a.Stats.QPRetransmits < 1 {
		t.Fatalf("QPRetransmits = %d, want ≥1", a.Stats.QPRetransmits)
	}
	if end < sim.Time(5*sim.Microsecond) {
		t.Fatalf("completed at %d ns, before the first timeout could fire", end)
	}
	if qerr := pe.qpA.Err(); qerr != nil {
		t.Fatalf("one drop must not error the QP: %v", qerr)
	}
}

// TestRetryExhaustionErrorsQP writes into a destroyed peer QP with the
// retransmit timer armed: after RetryCount fruitless timeouts the QP must
// enter the error state, complete the WQE with CQRetryExceeded, and reject
// further posts — and the run must terminate (no timer leak).
func TestRetryExhaustionErrorsQP(t *testing.T) {
	cfg := cluster.Default(2)
	cfg.NIC.RetransmitTimeout = 5 * sim.Microsecond
	cfg.NIC.RetryCount = 2
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
	b.NIC.DestroyQP(qb)
	qa.PostSend(nic.SendWR{WRID: 5, Op: nic.OpWrite, Signaled: true,
		LKey: src.LKey, LAddr: src.Base, Len: 8,
		RKey: dst.RKey, RAddr: dst.Base})
	c.Env.Run()
	cqes := cqA.Poll(4)
	if len(cqes) != 1 || cqes[0].WRID != 5 || cqes[0].Status != nic.CQRetryExceeded {
		t.Fatalf("cqes = %+v, want one CQRetryExceeded for WRID 5", cqes)
	}
	if qa.Err() == nil {
		t.Fatal("QP not in error state after retry exhaustion")
	}
	if err := qa.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: src.LKey, LAddr: src.Base, Len: 8,
		RKey: dst.RKey, RAddr: dst.Base}); err == nil {
		t.Fatal("PostSend on an errored QP must fail")
	}
	if a.NIC.Stats.QPErrors != 1 {
		t.Fatalf("QPErrors = %d, want 1", a.NIC.Stats.QPErrors)
	}
}

// TestRnrNakBackoffAndRecovery sends into an empty receive queue: the
// responder must RNR-NAK without advancing its PSN, and the requester must
// replay after the RNR backoff once a buffer is finally posted.
func TestRnrNakBackoffAndRecovery(t *testing.T) {
	pe := newPair(t, nic.RC)
	a := pe.c.Hosts[0].NIC
	poke(pe.cli, 0, []byte("patience"))
	if err := pe.qpA.PostSend(nic.SendWR{WRID: 2, Op: nic.OpSend, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8}); err != nil {
		t.Fatal(err)
	}
	// The receive buffer shows up only after the first RNR NAK went out
	// (default backoff 8µs; the send reaches host 1 in ~2µs).
	pe.c.Env.SpawnAt(5*sim.Microsecond, "late-recv", func(p *sim.Proc) {
		pe.qpB.PostRecv(nic.RecvWR{WRID: 9, LKey: pe.srv.LKey, LAddr: pe.srv.Base, Len: 64})
	})
	pe.c.Env.Run()
	recv := pe.rcqB.Poll(4)
	if len(recv) != 1 || recv[0].WRID != 9 || recv[0].Status != nic.CQOK {
		t.Fatalf("recv cqes = %+v, want one CQOK for WRID 9", recv)
	}
	if got := string(peek(pe.srv, 0, 8)); got != "patience" {
		t.Fatalf("payload = %q after RNR replay", got)
	}
	send := pe.cqA.Poll(4)
	if len(send) != 1 || send[0].Status != nic.CQOK {
		t.Fatalf("send cqes = %+v, want one CQOK", send)
	}
	if a.Stats.RNRNaks < 1 {
		t.Fatalf("RNRNaks = %d, want ≥1", a.Stats.RNRNaks)
	}
	if a.Stats.QPRetransmits < 1 {
		t.Fatalf("QPRetransmits = %d, want ≥1 (the RNR replay)", a.Stats.QPRetransmits)
	}
	if pe.qpA.Err() != nil {
		t.Fatal("QP errored on a recoverable RNR episode")
	}
}

// TestRnrRetryExhaustion never posts the receive buffer: after RNRRetryCount
// backoff rounds the requester must give up with CQRNRRetryExceeded.
func TestRnrRetryExhaustion(t *testing.T) {
	pe := newPair(t, nic.RC)
	a := pe.c.Hosts[0].NIC
	a.Cfg.RNRRetryCount = 2
	a.Cfg.RNRTimeout = 2 * sim.Microsecond
	if err := pe.qpA.PostSend(nic.SendWR{WRID: 3, Op: nic.OpSend, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8}); err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	cqes := pe.cqA.Poll(4)
	if len(cqes) != 1 || cqes[0].WRID != 3 || cqes[0].Status != nic.CQRNRRetryExceeded {
		t.Fatalf("cqes = %+v, want one CQRNRRetryExceeded", cqes)
	}
	if pe.qpA.Err() == nil {
		t.Fatal("QP not in error state after RNR exhaustion")
	}
	// Initial NAK + 2 retries, all NAKed.
	if a.Stats.RNRNaks != 3 {
		t.Fatalf("RNRNaks = %d, want 3", a.Stats.RNRNaks)
	}
}

// TestNakRetransmitStillWorksWithTimerArmed re-runs the burst-loss recovery
// with the timeout enabled: the gap-NAK fast path must win the race and the
// late timer must not inject duplicate work that breaks sequencing.
func TestNakRetransmitStillWorksWithTimerArmed(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Hosts[0].NIC.Cfg.RetransmitTimeout = 20 * sim.Microsecond
	pe.c.Hosts[1].NIC.DropNextDataPackets(3)
	for i := 0; i < 12; i++ {
		poke(pe.cli, i, []byte{byte(i + 1)})
		pe.qpA.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(i), Len: 1,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i)})
	}
	pe.c.Env.Run()
	for i := 0; i < 12; i++ {
		if pe.srv.ByteAt(i) != byte(i+1) {
			t.Fatalf("slot %d = %d after NAK recovery", i, pe.srv.ByteAt(i))
		}
	}
	if got := pe.cqA.Len(); got != 12 {
		t.Fatalf("completions = %d, want 12", got)
	}
	if pe.qpA.Err() != nil {
		t.Fatal("QP errored during ordinary NAK recovery")
	}
}

// TestTimerRunsFromOldestUnackedWQE: the retransmit timeout counts from the
// oldest unacknowledged WQE, so a QP that keeps posting still recovers. The
// first WRITE is lost, and so is the NAK the second one draws; the responder
// NAKs a gap once, so only the requester's timer can resend. A timer that
// every new post pushed back would wait until the posts stop.
func TestTimerRunsFromOldestUnackedWQE(t *testing.T) {
	const rto = 20 * sim.Microsecond
	pe := newPair(t, nic.RC)
	pe.c.Hosts[0].NIC.Cfg.RetransmitTimeout = rto
	pe.c.Hosts[1].NIC.DropNextDataPackets(1)
	pe.c.InstallFaults(&faults.Scenario{Name: "lost-nak",
		Links: []faults.LinkFault{faults.OneWayPartition(1, 0, 0, int64(rto*3/4))}})
	const posts = 20
	pe.c.Env.Spawn("poster", func(p *sim.Proc) {
		for i := 0; i < posts; i++ {
			poke(pe.cli, i, []byte{byte(i + 1)})
			pe.qpA.PostSend(nic.SendWR{WRID: uint64(i), Op: nic.OpWrite, Signaled: true,
				LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(i), Len: 1,
				RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i)})
			p.Sleep(rto / 2)
		}
	})
	pe.c.Env.RunUntil(sim.Time(3 * rto))
	if got := pe.srv.ByteAt(0); got != 1 {
		t.Fatalf("first WRITE not recovered by %d ns (posting goes on until %d ns)", 3*rto, posts*rto/2)
	}
	pe.c.Env.Run()
	for i := 0; i < posts; i++ {
		if pe.srv.ByteAt(i) != byte(i+1) {
			t.Fatalf("slot %d = %d after recovery", i, pe.srv.ByteAt(i))
		}
	}
	if got := pe.cqA.Len(); got != posts || pe.qpA.Err() != nil {
		t.Fatalf("completions = %d, QP error %v; want %d and none", got, pe.qpA.Err(), posts)
	}
}
