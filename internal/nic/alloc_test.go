package nic_test

import (
	"runtime"
	"testing"

	"scalerpc/internal/nic"
)

// TestAllocBudgetWriteRoundTrip pins the per-packet path closure-free: an RC
// WRITE from doorbell to ACK — outbound engine, fabric, inbound engine,
// commit, ACK back, completion — allocates nothing in steady state, with a
// DMA-gathered payload and with an inline one. Each round writes in both
// directions, as a request and its response do: a gathered payload's buffer
// is recycled into the receiving NIC's pool, so one-way traffic would drain
// the sender's. Reading the completions costs the slice CQ.Poll returns.
func TestAllocBudgetWriteRoundTrip(t *testing.T) {
	pe := newPair(t, nic.RC)
	round := func(signaled bool) func() {
		return func() {
			for _, inline := range []bool{false, true} {
				there := nic.SendWR{Op: nic.OpWrite, Signaled: signaled, Inline: inline,
					LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 64,
					RKey: pe.srv.RKey, RAddr: pe.srv.Base + 4096}
				back := nic.SendWR{Op: nic.OpWrite, Signaled: signaled, Inline: inline,
					LKey: pe.srv.LKey, LAddr: pe.srv.Base, Len: 64,
					RKey: pe.cli.RKey, RAddr: pe.cli.Base + 4096}
				if err := pe.qpA.PostSend(there); err != nil {
					t.Fatal(err)
				}
				if err := pe.qpB.PostSend(back); err != nil {
					t.Fatal(err)
				}
				pe.c.Env.Run()
			}
			if signaled && (len(pe.cqA.Poll(4)) != 2 || len(pe.cqB.Poll(4)) != 2) {
				t.Fatal("writes not acknowledged")
			}
		}
	}
	round(true)() // fill the packet, message and buffer pools
	if got := testing.AllocsPerRun(50, round(false)); got != 0 {
		t.Errorf("%v allocs per four unsignaled WRITE round trips, want 0", got)
	}
	if got := testing.AllocsPerRun(50, round(true)); got > 2 {
		t.Errorf("%v allocs per four signaled WRITE round trips and two CQ polls, want ≤ 2", got)
	}
}

// TestAllocBudgetCQRing: a CQ's ring is an address range — the NIC charges
// each CQE's DMA write at its slot and the host charges polls against the
// ring — whose bytes nothing reads, so creating a thousand CQs and taking
// 2×depth completions on one of them holds no ring memory (a 1024-deep
// ring was 64 KB per CQ when registration allocated it).
func TestAllocBudgetCQRing(t *testing.T) {
	pe := newPair(t, nic.RC)
	a := pe.c.Hosts[0]
	wr := nic.SendWR{Op: nic.OpWrite, Signaled: true,
		LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 64,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base}
	complete := func(n int) {
		for done := 0; done < n; done += 64 {
			for i := 0; i < 64; i++ {
				if err := pe.qpA.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			pe.c.Env.Run()
			if got := len(pe.cqA.Poll(64)); got != 64 {
				t.Fatalf("%d completions for 64 signaled WRITEs", got)
			}
		}
	}
	complete(64) // touch both regions, fill the packet and buffer pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cqs := make([]*nic.CQ, 1000)
	for i := range cqs {
		cqs[i] = a.NIC.CreateCQ()
	}
	complete(2 * a.NIC.Cfg.CQDepth)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cqs)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew >= 2<<20 {
		t.Errorf("1000 CQs and %d completions grew the heap by %d bytes, want < 2 MiB", 2*a.NIC.Cfg.CQDepth, grew)
	}
	t.Logf("1000 CQs and %d completions: heap +%d bytes", 2*a.NIC.Cfg.CQDepth, grew)
}
