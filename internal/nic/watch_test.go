package nic_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// Zone geometry of the striped watches below: 256-byte zones over four
// owners, so zone 6 belongs to owner 2 and zone 7 to owner 3.
const (
	watchZone   = 256
	watchOwners = 4
)

// stripeWatch registers watchOwners signals on rkey of h's NIC through
// WatchZones and spawns one counter per signal; woken[i] counts the wakes
// owner i saw.
func stripeWatch(c *cluster.Cluster, h int, rkey uint32) (woken []int) {
	woken = make([]int, watchOwners)
	sigs := make([]*sim.Signal, watchOwners)
	for i := range sigs {
		i, sig := i, sim.NewSignal(c.Env)
		sigs[i] = sig
		c.Env.Spawn("owner", func(p *sim.Proc) {
			for {
				sig.Wait(p)
				woken[i]++
			}
		})
	}
	c.Hosts[h].NIC.WatchZones(rkey, watchZone, sigs)
	return woken
}

func wantWakes(t *testing.T, what string, woken []int, want map[int]int) {
	t.Helper()
	for i, n := range woken {
		if n != want[i] {
			t.Errorf("%s: owners woke %v, want only %v", what, woken, want)
			return
		}
	}
}

// TestWakeBudgetStripedWatch: every way the NIC lands bytes in host memory
// wakes only the owner of the zone they land in.
func TestWakeBudgetStripedWatch(t *testing.T) {
	zoneAt := func(r *memory.Region, z int) uint64 { return r.Base + uint64(z*watchZone) }
	for _, tc := range []struct {
		name string
		post func(pe *pairEnv)
		want map[int]int
	}{
		{"WRITE", func(pe *pairEnv) {
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 32,
				RKey: pe.srv.RKey, RAddr: zoneAt(pe.srv, 6) + 16})
		}, map[int]int{2: 1}},
		{"WRITE_WITH_IMM", func(pe *pairEnv) {
			pe.qpB.PostRecv(nic.RecvWR{WRID: 1})
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpWriteImm, Imm: 7, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 32,
				RKey: pe.srv.RKey, RAddr: zoneAt(pe.srv, 6)})
		}, map[int]int{2: 1}},
		{"SEND", func(pe *pairEnv) {
			pe.qpB.PostRecv(nic.RecvWR{WRID: 1, LKey: pe.srv.LKey, LAddr: zoneAt(pe.srv, 6), Len: 64})
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpSend, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 32})
		}, map[int]int{2: 1}},
		{"FETCH_ADD", func(pe *pairEnv) {
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpFetchAdd, Add: 1, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
				RKey: pe.srv.RKey, RAddr: zoneAt(pe.srv, 6) + 8})
		}, map[int]int{2: 1}},
		{"WRITE across a zone boundary", func(pe *pairEnv) {
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 16,
				RKey: pe.srv.RKey, RAddr: zoneAt(pe.srv, 7) - 8})
		}, map[int]int{2: 1, 3: 1}},
		{"WRITE over more zones than owners", func(pe *pairEnv) {
			pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 6 * watchZone,
				RKey: pe.srv.RKey, RAddr: zoneAt(pe.srv, 1)})
		}, map[int]int{0: 1, 1: 1, 2: 1, 3: 1}},
	} {
		pe := newPair(t, nic.RC)
		woken := stripeWatch(pe.c, 1, pe.srv.RKey)
		tc.post(pe)
		pe.c.Env.Run()
		wantWakes(t, tc.name, woken, tc.want)
	}

	// READ: the response data lands in the requester's buffer, zone 6 of
	// the region host 0 watches.
	pe := newPair(t, nic.RC)
	woken := stripeWatch(pe.c, 0, pe.cli.RKey)
	pe.qpA.PostSend(nic.SendWR{Op: nic.OpRead, LKey: pe.cli.LKey, LAddr: zoneAt(pe.cli, 6), Len: 32,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base})
	pe.c.Env.Run()
	wantWakes(t, "READ response data", woken, map[int]int{2: 1})

	// A torn write wakes its owner twice, at the partial commit and at the
	// last byte.
	cfg := cluster.Default(2)
	cfg.NIC.TornWriteDelay = 500
	c := cluster.New(cfg)
	defer c.Close()
	a, b := c.Hosts[0], c.Hosts[1]
	cqA, cqB := a.NIC.CreateCQ(), b.NIC.CreateCQ()
	qa, qb := a.NIC.CreateQP(nic.RC, cqA, cqA), b.NIC.CreateQP(nic.RC, cqB, cqB)
	if err := nic.Connect(qa, qb); err != nil {
		t.Fatal(err)
	}
	src := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(16*watchZone, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	woken = stripeWatch(c, 1, dst.RKey)
	qa.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: src.LKey, LAddr: src.Base, Len: 16,
		RKey: dst.RKey, RAddr: zoneAt(dst, 6) + 32})
	c.Env.Run()
	wantWakes(t, "torn WRITE", woken, map[int]int{2: 2})
}

// TestWakeBudgetWatchRegion: a one-signal WatchRegion is the whole region
// as one zone, so a write anywhere in it wakes its watcher.
func TestWakeBudgetWatchRegion(t *testing.T) {
	pe := newPair(t, nic.RC)
	sig := sim.NewSignal(pe.c.Env)
	pe.c.Hosts[1].NIC.WatchRegion(pe.srv.RKey, sig)
	woken := 0
	pe.c.Env.Spawn("watcher", func(p *sim.Proc) {
		for {
			sig.Wait(p)
			woken++
		}
	})
	for i, off := range []uint64{0, 4096, uint64(pe.srv.Len() - 8)} {
		pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + off})
		pe.c.Env.Run()
		if woken != i+1 {
			t.Fatalf("write at offset %d: watcher woke %d times, want %d", off, woken, i+1)
		}
	}
}

// TestWakeBudgetStripedWatchAllocs: waking a zone's owner allocates
// nothing — a WRITE round trip into a striped region, with the owner
// parked and woken every round, stays at 0 allocs.
func TestWakeBudgetStripedWatchAllocs(t *testing.T) {
	pe := newPair(t, nic.RC)
	woken := stripeWatch(pe.c, 1, pe.srv.RKey)
	round := func() {
		pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 64,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + 5*watchZone})
		pe.qpB.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.srv.LKey, LAddr: pe.srv.Base, Len: 64,
			RKey: pe.cli.RKey, RAddr: pe.cli.Base})
		pe.c.Env.Run()
	}
	round() // fill the packet, message and buffer pools
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("%v allocs per WRITE round trip waking a zone owner, want 0", got)
	}
	if woken[1] != 52 || woken[0]+woken[2]+woken[3] != 0 {
		t.Errorf("owners woke %v, want only owner 1, once per round", woken)
	}
}
