package nic_test

import (
	"testing"

	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// TestOutQueueStaysBoundedWhileBusy: an engine that never drains — a chain
// of eight WRITEs is posted whenever half of the last one is still queued —
// holds a queue sized by what is pending, not by everything posted since
// it was last empty.
func TestOutQueueStaysBoundedWhileBusy(t *testing.T) {
	pe := newPair(t, nic.RC)
	a := pe.c.Hosts[0].NIC
	wrs := make([]nic.SendWR, 8)
	for i := range wrs {
		wrs[i] = nic.SendWR{Op: nic.OpWrite, Inline: true, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64(i*8)}
	}
	const chains = 4000
	peakCap := 0
	for i := 0; i < chains; i++ {
		if posted, err := pe.qpA.PostSendBatch(wrs); posted != len(wrs) || err != nil {
			t.Fatalf("chain %d: posted %d, err %v", i, posted, err)
		}
		for {
			pending, capacity := a.OutQueue()
			peakCap = max(peakCap, capacity)
			if pending == 0 {
				t.Fatalf("chain %d: the engine drained; the test must keep it busy", i)
			}
			if pending <= len(wrs)/2 {
				break
			}
			pe.c.Env.RunUntil(pe.c.Env.Now() + 10*sim.Nanosecond)
		}
	}
	if peakCap > 8*len(wrs) {
		t.Fatalf("outbound queue capacity reached %d over %d posted WRs with at most %d pending",
			peakCap, chains*len(wrs), len(wrs)+len(wrs)/2)
	}
	pe.c.Env.Run()
	if pending, _ := a.OutQueue(); pending != 0 {
		t.Fatalf("%d jobs left queued", pending)
	}
}
