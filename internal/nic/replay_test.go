package nic_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// TestAtomicsExactlyOnceUnderDupAndDrop has two clients, each on its own
// host and RC QP, increment one server word perClient times each while the
// fabric duplicates about 5 % and drops about 1 % of every packet. An atomic
// is not idempotent: a duplicated or retransmitted request that executed
// again would hand two increments the same old value and skip one, so the
// responder must answer it from the QP's replay cache. The FetchAdd row
// adds 1; the CompSwap row swaps the value it expects for one more and, on
// a lost race, retries from the old value the NIC returned.
func TestAtomicsExactlyOnceUnderDupAndDrop(t *testing.T) {
	const perClient = 150
	for _, op := range []nic.Op{nic.OpFetchAdd, nic.OpCompSwap} {
		name := map[nic.Op]string{nic.OpFetchAdd: "fetchadd", nic.OpCompSwap: "compswap"}[op]
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.Default(3))
			defer c.Close()
			c.InstallFaults(&faults.Scenario{
				Name:  "atomic-dup-drop",
				Seed:  7,
				Links: []faults.LinkFault{{Src: -1, Dst: -1, DropRate: 0.01, DupRate: 0.05}},
				NIC:   faults.NICTuning{RetransmitTimeoutNs: 20_000, RetryCount: 7},
			})
			srv := c.Hosts[0]
			word := srv.Mem.Register(8, memory.PageSize4K,
				memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)

			var olds []uint64 // old values of the atomics that took effect
			issued, finished := 0, 0
			for i := 1; i <= 2; i++ {
				cq := c.Hosts[i].NIC.CreateCQ()
				scq := srv.NIC.CreateCQ()
				qp, _ := c.ConnectRC(c.Hosts[i], srv, cq, cq, scq, scq)
				c.Env.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
					expect := uint64(0)
					for done := 0; done < perClient; {
						if err := qp.PostSend(nic.SendWR{Op: op, Signaled: true,
							RKey: word.RKey, RAddr: word.Base,
							Add: 1, Compare: expect, Swap: expect + 1}); err != nil {
							t.Errorf("client %d: post: %v", i, err)
							return
						}
						issued++
						var es []nic.CQE
						for es = cq.Poll(1); len(es) == 0; es = cq.Poll(1) {
							p.Sleep(200 * sim.Nanosecond)
						}
						if es[0].Status != nic.CQOK {
							t.Errorf("client %d: completion status %d", i, es[0].Status)
							return
						}
						old := es[0].AtomicOld
						if op == nic.OpCompSwap && old != expect {
							expect = old // lost the race: retry from what the NIC saw
							continue
						}
						olds = append(olds, old)
						expect = old + 1
						done++
					}
					finished++
				})
			}
			c.Env.RunUntil(sim.Time(50 * sim.Millisecond))

			if finished != 2 {
				t.Fatalf("%d of 2 clients finished", finished)
			}
			slices.Sort(olds)
			for k, old := range olds {
				if old != uint64(k) {
					t.Fatalf("sorted old values diverge at %d: got %d (an atomic ran twice or was lost)", k, old)
				}
			}
			if final := binary.LittleEndian.Uint64(peek(word, 0, 8)); len(olds) != 2*perClient || final != 2*perClient {
				t.Fatalf("%d effective atomics, final word %d; want %d of each", len(olds), final, 2*perClient)
			}
			st := srv.NIC.Stats
			if st.AtomicOps != uint64(issued) {
				t.Fatalf("server executed %d atomics for %d posted (a duplicate re-executed)", st.AtomicOps, issued)
			}
			if st.AtomicReplays == 0 {
				t.Fatal("no duplicate atomic was answered from the replay cache: the schedule proves nothing")
			}
			t.Logf("%d posted, %d replayed", issued, st.AtomicReplays)
		})
	}
}
