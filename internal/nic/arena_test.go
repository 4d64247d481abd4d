package nic_test

import (
	"bytes"
	"testing"

	"scalerpc/internal/fabric"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// These tests pin the arena ownership contract (see pool.go): packets,
// fabric messages and payload buffers are recycled through per-NIC free
// lists, so every aliasing hazard the fault plane can create — duplicated
// deliveries, torn writes held past commit, mangled per-delivery copies,
// retransmissions replaying inline buffers — must survive heavy pool churn
// without a recycled buffer's next tenant bleeding into committed data.
// They extend the snapshot-before-yield regression tests from the RPC layer
// (baseline/table2's TestServeSnapshotSurvivesOverwrite) down to the NIC arenas.

// fill writes a distinctive per-op pattern.
func fill(b []byte, op int) {
	for i := range b {
		b[i] = byte(op*31 + i)
	}
}

// TestArenaAliasingDuplicateDelivery duplicates every data packet at the
// switch while a stream of writes churns the pools. The duplicated message
// and payload are pinned (Message.NoRecycle); if they were recycled after
// the first delivery, the second delivery would commit whatever the pool's
// next tenant put in the buffer.
func TestArenaAliasingDuplicateDelivery(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Fabric.SetInterceptor(func(m *fabric.Message) fabric.Verdict {
		return fabric.Verdict{Duplicate: true}
	})
	const ops = 40
	const sz = 128
	want := make([]byte, sz)
	for op := 0; op < ops; op++ {
		fill(pe.cli.Bytes()[:sz], op)
		if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(op), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(op*sz)}); err != nil {
			t.Fatal(err)
		}
		pe.c.Env.Run()
		fill(want, op)
		if got := pe.srv.Bytes()[op*sz : (op+1)*sz]; !bytes.Equal(got, want) {
			t.Fatalf("op %d: committed %x..., want %x... — duplicate delivery read a recycled buffer", op, got[:8], want[:8])
		}
	}
	if pe.cqA.Len() != ops {
		t.Fatalf("completions = %d, want %d", pe.cqA.Len(), ops)
	}
}

// TestArenaAliasingTornWrite holds the last byte of every inbound write
// past its commit action (TornWriteDelay) while later writes recycle
// packets through the same pool. The torn packet is pinned via noRecycle;
// without the pin, the delayed byte would be read from a buffer already
// handed to another packet.
func TestArenaAliasingTornWrite(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Hosts[1].NIC.Cfg.TornWriteDelay = 3 * sim.Microsecond
	const ops = 32
	const sz = 256
	for op := 0; op < ops; op++ {
		// Distinct source offsets: the NIC gathers a write's payload at
		// process time, so sources must stay stable while ops stream.
		fill(pe.cli.Bytes()[op*sz:(op+1)*sz], op)
		if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(op), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(op*sz), Len: sz,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(op*sz)}); err != nil {
			t.Fatal(err)
		}
		// Deliberately do NOT drain between ops: the next packets must churn
		// the pool while this op's tail byte is still pending.
	}
	pe.c.Env.Run()
	want := make([]byte, sz)
	for op := 0; op < ops; op++ {
		fill(want, op)
		if got := pe.srv.Bytes()[op*sz : (op+1)*sz]; !bytes.Equal(got, want) {
			t.Fatalf("op %d: committed %x (tail %x), want %x (tail %x) — torn write read a recycled buffer",
				op, got[:4], got[sz-1], want[:4], want[sz-1])
		}
	}
}

// TestArenaAliasingMangledCopy corrupts one delivery's payload past the
// ICRC. The receiver must commit a PRIVATE pooled copy with exactly one
// flipped bit — and the flip must not leak into the sender's buffer (which
// RC retransmission would replay) or any other op's data.
func TestArenaAliasingMangledCopy(t *testing.T) {
	pe := newPair(t, nic.RC)
	n := 0
	pe.c.Fabric.SetInterceptor(func(m *fabric.Message) fabric.Verdict {
		n++
		if n == 1 {
			return fabric.Verdict{CorruptPayload: true}
		}
		return fabric.Verdict{}
	})
	const sz = 64
	fill(pe.cli.Bytes()[:sz], 1)
	src := append([]byte(nil), pe.cli.Bytes()[:sz]...)
	pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()

	if !bytes.Equal(pe.cli.Bytes()[:sz], src) {
		t.Fatal("sender's source buffer changed — the mangled copy aliased it")
	}
	diff := 0
	for i := 0; i < sz; i++ {
		for b := pe.srv.Bytes()[i] ^ src[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("committed data differs from source by %d bits, want exactly 1 (the injected flip)", diff)
	}
	if pe.c.Hosts[1].NIC.Stats.PayloadMangles != 1 {
		t.Fatalf("PayloadMangles = %d, want 1", pe.c.Hosts[1].NIC.Stats.PayloadMangles)
	}

	// A later clean write into the same region must land exact: the mangled
	// copy's pooled buffer gets reused here.
	fill(pe.cli.Bytes()[:sz], 2)
	pe.qpA.PostSend(nic.SendWR{WRID: 2, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	if !bytes.Equal(pe.srv.Bytes()[:sz], pe.cli.Bytes()[:sz]) {
		t.Fatal("clean write after mangled delivery did not land exact")
	}
}

// TestArenaAliasingInlineRetransmit streams inline RC sends while the
// receiver periodically drops data packets, forcing timeout retransmission
// from the inflight entries' inline buffers. Those buffers retire into the
// pool only at ACK time; a premature retire would let a new send overwrite
// payload a pending retransmit still needs.
func TestArenaAliasingInlineRetransmit(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Hosts[0].NIC.Cfg.RetransmitTimeout = 5 * sim.Microsecond
	const ops = 30
	const sz = 48
	bufs := make([][]byte, ops)
	for op := 0; op < ops; op++ {
		if op%3 == 0 {
			pe.c.Hosts[1].NIC.DropNextDataPackets(1)
		}
		fill(pe.cli.Bytes()[:sz], op)
		dst := pe.c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		bufs[op] = dst.Bytes()
		if err := pe.qpB.PostRecv(nic.RecvWR{WRID: uint64(op), LKey: dst.LKey, LAddr: dst.Base, Len: 4096}); err != nil {
			t.Fatal(err)
		}
		if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(op), Op: nic.OpSend, Signaled: true, Inline: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz}); err != nil {
			t.Fatal(err)
		}
		// Immediately dirty the source region: an inline post must have
		// captured the payload at post time into its own buffer.
		fill(pe.cli.Bytes()[:sz], 999)
		pe.c.Env.Run()
	}
	want := make([]byte, sz)
	for op := 0; op < ops; op++ {
		fill(want, op)
		if !bytes.Equal(bufs[op][:sz], want) {
			t.Fatalf("op %d: received %x..., want %x... — inline buffer retired or reused too early", op, bufs[op][:8], want[:8])
		}
	}
	if pe.c.Hosts[0].NIC.Stats.QPRetransmits == 0 {
		t.Fatal("no retransmits happened; the drop schedule did not exercise the replay path")
	}
}

// TestArenaAliasingDuplicateOfMangled combines the two per-delivery hazards:
// a duplicated message whose first copy is payload-corrupted. The clean
// duplicate must still commit the original bytes after the mangled private
// copy committed its flip — ordering and buffer ownership must not tangle.
func TestArenaAliasingDuplicateOfMangled(t *testing.T) {
	pe := newPair(t, nic.RC)
	n := 0
	pe.c.Fabric.SetInterceptor(func(m *fabric.Message) fabric.Verdict {
		n++
		if n == 1 {
			return fabric.Verdict{CorruptPayload: true, Duplicate: true}
		}
		return fabric.Verdict{}
	})
	const sz = 64
	fill(pe.cli.Bytes()[:sz], 7)
	pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	// The mangled first copy commits, then the clean duplicate is rejected
	// as a PSN duplicate (RC) — so committed data carries the single flip,
	// and crucially no recycled-buffer garbage.
	diff := 0
	for i := 0; i < sz; i++ {
		for b := pe.srv.Bytes()[i] ^ pe.cli.Bytes()[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("committed data differs from source by %d bits, want ≤1 — a pooled buffer was reused while aliased", diff)
	}
	// Follow-on traffic over the reused arenas stays exact.
	for op := 0; op < 20; op++ {
		fill(pe.cli.Bytes()[:sz], 100+op)
		if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(2 + op), Op: nic.OpWrite, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: sz,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(sz)}); err != nil {
			t.Fatal(err)
		}
		pe.c.Env.Run()
		if !bytes.Equal(pe.srv.Bytes()[sz:2*sz], pe.cli.Bytes()[:sz]) {
			t.Fatalf("follow-on op %d corrupted", op)
		}
	}
}
