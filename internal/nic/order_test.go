package nic_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// fillPattern writes a distinct byte pattern for request i into b.
func fillPattern(b []byte, i int) {
	for k := range b {
		b[k] = byte(i*31 + k*7 + 1)
	}
}

// TestRCWritesLeaveInPostOrder: two gathered WRITEs posted back to back on
// one QP must reach the responder in post order, even when the second one's
// pipelined latency is shorter — a short gather behind a long one, or a
// QPC/WQE hit behind the cold QP's misses. A WQE that overtook its
// predecessor would arrive ahead of the expected PSN, draw a sequence-gap
// NAK and make the requester resend the window; on a lossless fabric none of
// that may happen, with or without the retransmit timer.
func TestRCWritesLeaveInPostOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"64KB-then-8B", []int{64 << 10, 8}},
		{"qpc-hit-behind-miss", []int{8, 8}},
	} {
		for _, rto := range []sim.Duration{0, 50 * sim.Microsecond} {
			t.Run(fmt.Sprintf("%s/rto=%dns", tc.name, rto), func(t *testing.T) {
				pe := newPair(t, nic.RC)
				a, b := pe.c.Hosts[0].NIC, pe.c.Hosts[1].NIC
				a.Cfg.RetransmitTimeout = rto
				off := 0
				for i, size := range tc.sizes {
					b := make([]byte, size)
					fillPattern(b, i)
					poke(pe.cli, off, b)
					if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(i + 1), Op: nic.OpWrite, Signaled: true,
						LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(off), Len: size,
						RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(off)}); err != nil {
						t.Fatal(err)
					}
					off += size
				}
				pe.c.Env.Run()
				cqes := pe.cqA.Poll(8)
				if len(cqes) != len(tc.sizes) {
					t.Fatalf("completions = %+v, want %d", cqes, len(tc.sizes))
				}
				for i, e := range cqes {
					if e.WRID != uint64(i+1) || e.Status != nic.CQOK {
						t.Errorf("cqe %d = %+v, want WRID %d CQOK", i, e, i+1)
					}
				}
				if !bytes.Equal(peek(pe.srv, 0, off), peek(pe.cli, 0, off)) {
					t.Error("responder memory does not hold both payloads")
				}
				if b.Stats.NAKs != 0 || a.Stats.Retransmits != 0 {
					t.Errorf("NAKs = %d, retransmits = %d on a lossless fabric, want 0 and 0",
						b.Stats.NAKs, a.Stats.Retransmits)
				}
			})
		}
	}
}

// TestRCReadResponsesLeaveInPSNOrder: a 64 KB READ, an 8 B READ and a
// FETCH_ADD on one QP. The responder gathers each READ before answering,
// and the short gather finishes first; its response must still wait for the
// long one, and the atomic's behind both, or the requester would complete
// the 64 KB READ on a later answer and drop its data on the floor.
func TestRCReadResponsesLeaveInPSNOrder(t *testing.T) {
	pe := newPair(t, nic.RC)
	sizes := []int{64 << 10, 8}
	off := 0
	for i, size := range sizes {
		b := make([]byte, size)
		fillPattern(b, i)
		poke(pe.srv, off, b)
		if err := pe.qpA.PostSend(nic.SendWR{WRID: uint64(i + 1), Op: nic.OpRead, Signaled: true,
			LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(off), Len: size,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(off)}); err != nil {
			t.Fatal(err)
		}
		off += size
	}
	poke(pe.srv, off, binary.LittleEndian.AppendUint64(nil, 40))
	if err := pe.qpA.PostSend(nic.SendWR{WRID: 3, Op: nic.OpFetchAdd, Signaled: true, Add: 2,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base + uint64(off), Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(off)}); err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	cqes := pe.cqA.Poll(8)
	if len(cqes) != 3 {
		t.Fatalf("completions = %+v, want 3", cqes)
	}
	for i, size := range sizes {
		if e := cqes[i]; e.WRID != uint64(i+1) || e.Status != nic.CQOK || e.ByteLen != size {
			t.Errorf("cqe %d = %+v, want WRID %d CQOK with %d bytes", i, e, i+1, size)
		}
	}
	if e := cqes[2]; e.WRID != 3 || e.Status != nic.CQOK || e.AtomicOld != 40 {
		t.Errorf("atomic cqe = %+v, want WRID 3 CQOK with old value 40", e)
	}
	if !bytes.Equal(peek(pe.cli, 0, off), peek(pe.srv, 0, off)) {
		t.Error("requester memory does not hold both READs' data")
	}
	if got := binary.LittleEndian.Uint64(peek(pe.srv, off, 8)); got != 42 {
		t.Errorf("counter = %d after FETCH_ADD 2, want 42", got)
	}
}

// TestDepartureOrderIsPerQP: the order rule holds within a QP only. A short
// WRITE on a second QP, posted behind a 64 KB one on the first, still
// overlaps its gather and completes first.
func TestDepartureOrderIsPerQP(t *testing.T) {
	pe := newPair(t, nic.RC)
	a, b := pe.c.Hosts[0].NIC, pe.c.Hosts[1].NIC
	qpA2 := a.CreateQP(nic.RC, pe.cqA, pe.rcqA)
	qpB2 := b.CreateQP(nic.RC, pe.cqB, pe.rcqB)
	if err := nic.Connect(qpA2, qpB2); err != nil {
		t.Fatal(err)
	}
	const big = 64 << 10
	if err := pe.qpA.PostSend(nic.SendWR{WRID: 1, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: big,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base}); err != nil {
		t.Fatal(err)
	}
	if err := qpA2.PostSend(nic.SendWR{WRID: 2, Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base + big, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + big}); err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	cqes := pe.cqA.Poll(8)
	if len(cqes) != 2 || cqes[0].WRID != 2 || cqes[1].WRID != 1 {
		t.Fatalf("completions = %+v, want the second QP's WRITE first", cqes)
	}
}
