package nic_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// These tests move data across the 256-byte units and 4 KB host pages that
// back a registered region, each byte-exact against a contiguous reference
// of the region.

// pattern returns n bytes that differ from their neighbours and from any
// other seed's.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed*13 + i>>8)
	}
	return b
}

// unit is the size of the units that back a region's bytes.
const unit = 256

// resident returns the bytes of written units in host h's regions.
func resident(pe *pairEnv, h int) int { return pe.c.Hosts[h].Mem.Census().Units }

// post posts one signaled work request on the pair's requester QP and
// runs the cluster until it completes.
func post(t *testing.T, pe *pairEnv, wr nic.SendWR) {
	t.Helper()
	wr.Signaled = true
	if err := pe.qpA.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	pe.c.Env.Run()
	if cqes := pe.cqA.Poll(4); len(cqes) != 1 || cqes[0].Status != nic.CQOK {
		t.Fatalf("completions %+v, want one CQOK", cqes)
	}
}

// TestCrossPage64KWriteAndRead: a 64 KB WRITE gathered from and landed at
// offsets that put it across 17 pages on each side, then READ back to a
// third unaligned span.
func TestCrossPage64KWriteAndRead(t *testing.T) {
	pe := newPair(t, nic.RC)
	const n, src, dst, back = 64 << 10, 300, 100, 200_000
	ref := make([]byte, pe.srv.Len())
	data := pattern(n, 1)
	poke(pe.cli, src, data)
	srv0 := resident(pe, 1)
	post(t, pe, nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base + src, Len: n,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + dst})
	copy(ref[dst:], data)
	if !bytes.Equal(peek(pe.srv, 0, len(ref)), ref) {
		t.Fatal("the 64 KB WRITE did not land byte-exact")
	}
	if got := resident(pe, 1) - srv0; got != (dst+n+unit-1)/unit*unit {
		t.Errorf("the WRITE made %d bytes resident on the responder, want its %d units", got, (dst+n+unit-1)/unit)
	}
	post(t, pe, nic.SendWR{Op: nic.OpRead, LKey: pe.cli.LKey, LAddr: pe.cli.Base + back, Len: n,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + dst})
	if !bytes.Equal(peek(pe.cli, back, n), data) || !bytes.Equal(peek(pe.cli, src, n), data) {
		t.Fatal("the 64 KB READ did not land byte-exact")
	}
}

// TestCrossPageUnalignedWrite: 100 bytes astride a page boundary, inline
// and gathered.
func TestCrossPageUnalignedWrite(t *testing.T) {
	for _, inline := range []bool{false, true} {
		pe := newPair(t, nic.RC)
		const n, at = 100, 3*4096 - 37
		ref := make([]byte, 5*4096)
		data := pattern(n, 2)
		poke(pe.cli, 4096-50, data)
		post(t, pe, nic.SendWR{Op: nic.OpWrite, Inline: inline, LKey: pe.cli.LKey, LAddr: pe.cli.Base + 4096 - 50, Len: n,
			RKey: pe.srv.RKey, RAddr: pe.srv.Base + at})
		copy(ref[at:], data)
		if !bytes.Equal(peek(pe.srv, 0, len(ref)), ref) {
			t.Fatalf("inline %v: the WRITE across a page boundary did not land byte-exact", inline)
		}
		if got := resident(pe, 1); got != 2*unit {
			t.Errorf("inline %v: %d bytes resident on the responder, want the two units written", inline, got)
		}
	}
}

// TestCrossPageTornWrite: a torn WRITE whose held-back final byte is the
// first byte of the next page. A poller woken by the partial commit sees
// every byte but the last, and the last lands after the delay.
func TestCrossPageTornWrite(t *testing.T) {
	pe := newPair(t, nic.RC)
	pe.c.Hosts[1].NIC.Cfg.TornWriteDelay = 500
	const n, at = 100, 2*4096 - 99
	data := pattern(n, 3)
	poke(pe.cli, 0, data)
	sig := sim.NewSignal(pe.c.Env)
	pe.c.Hosts[1].NIC.WatchRegion(pe.srv.RKey, sig)
	var partial []byte
	pe.c.Env.Spawn("observer", func(p *sim.Proc) {
		sig.Wait(p)
		partial = peek(pe.srv, at, n)
	})
	post(t, pe, nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: n,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + at})
	want := append(append([]byte(nil), data[:n-1]...), 0)
	if !bytes.Equal(partial, want) {
		t.Fatalf("partial state %x, want all but the final byte", partial)
	}
	ref := make([]byte, 3*4096)
	copy(ref[at:], data)
	if !bytes.Equal(peek(pe.srv, 0, len(ref)), ref) {
		t.Fatal("the torn WRITE did not complete byte-exact")
	}
}

// TestFetchAddOnUnwrittenPage: an atomic on a page nothing wrote reads
// zero, and its result lands in a unit of its own.
func TestFetchAddOnUnwrittenPage(t *testing.T) {
	pe := newPair(t, nic.RC)
	const at = 5*4096 + 8
	post(t, pe, nic.SendWR{Op: nic.OpFetchAdd, Add: 5, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + at})
	ref := make([]byte, 7*4096)
	binary.LittleEndian.PutUint64(ref[at:], 5)
	if !bytes.Equal(peek(pe.srv, 0, len(ref)), ref) {
		t.Fatal("FETCH_ADD on an unwritten page did not leave exactly 5 at its word")
	}
	if got := resident(pe, 1); got != unit {
		t.Errorf("%d bytes resident on the responder, want the one unit the atomic wrote", got)
	}
	post(t, pe, nic.SendWR{Op: nic.OpFetchAdd, Add: 0, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 8,
		RKey: pe.srv.RKey, RAddr: pe.srv.Base + 6*4096})
	if got := resident(pe, 1); got != unit {
		t.Errorf("adding 0 to an unwritten word made a unit resident: %d bytes, want %d", got, unit)
	}
}

// TestAllocBudgetRegionPages: a pool nobody wrote costs nothing to probe,
// read a frame from, view (a nil view) or clear, nor do a READ of unwritten memory into
// unwritten memory and a WRITE of zeros; N WRITEs into N fresh pages cost
// at most ⌈N/256⌉ unit mallocs and ⌈N/256⌉ unit-table mallocs, one per
// slab of each.
func TestAllocBudgetRegionPages(t *testing.T) {
	pe := newPair(t, nic.RC)
	pool := rpcwire.NewPool(pe.srv, rpcwire.BlockSize, 8, 16)
	buf := make([]byte, 0, rpcwire.BlockSize)
	scan := func() {
		for z := 0; z < pool.Zones; z++ {
			for b := 0; b < pool.BlocksPerZone; b++ {
				if pool.Valid(z, b) {
					t.Fatal("an unwritten block reads valid")
				}
				if _, _, err := pool.ReadFrame(z, b, &buf); err == nil {
					t.Fatal("an unwritten block decodes")
				}
				pool.Clear(z, b)
			}
		}
	}
	if got := testing.AllocsPerRun(10, scan); got != 0 {
		t.Errorf("%v allocs per probe, decode and clear of %d unwritten blocks, want 0", got, pool.Zones*pool.BlocksPerZone)
	}
	zeros := func() {
		for _, op := range []nic.Op{nic.OpRead, nic.OpWrite} {
			if err := pe.qpA.PostSend(nic.SendWR{Op: op, LKey: pe.cli.LKey, LAddr: pe.cli.Base + 8192, Len: 3000,
				RKey: pe.srv.RKey, RAddr: pe.srv.Base + 4000}); err != nil {
				t.Fatal(err)
			}
		}
		pe.c.Env.Run()
	}
	zeros() // fill the packet and buffer pools
	if got := testing.AllocsPerRun(10, zeros); got != 0 {
		t.Errorf("%v allocs per READ and WRITE of unwritten memory, want 0", got)
	}
	if a, b := resident(pe, 0), resident(pe, 1); a != 0 || b != 0 {
		t.Fatalf("%d and %d bytes resident after probes and zero traffic, want 0 and 0", a, b)
	}

	// A stream of n one-byte WRITEs, each into a page of its own.
	const n = 100
	stream := func(first int) {
		for i := 0; i < n; i++ {
			if err := pe.qpA.PostSend(nic.SendWR{Op: nic.OpWrite, LKey: pe.cli.LKey, LAddr: pe.cli.Base, Len: 1,
				RKey: pe.srv.RKey, RAddr: pe.srv.Base + uint64((first+i)*4096)}); err != nil {
				t.Fatal(err)
			}
		}
		pe.c.Env.Run()
	}
	poke(pe.cli, 0, []byte{1})
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // slabMallocs needs every allocation recorded
	stream(1)                  // the responder's page table and first units
	before := slabMallocs()
	stream(1 + n)
	got, want := slabMallocs()-before, int64((n+255)/256)
	if got > 2*want {
		t.Errorf("%d unit and unit-table mallocs for %d WRITEs into fresh pages, want at most %d", got, n, 2*want)
	}
	if got := resident(pe, 1); got != 2*n*unit {
		t.Errorf("%d bytes resident on the responder, want the %d units written", got, 2*n)
	}
}

// slabMallocs returns how many objects have been allocated so far by call
// stacks through memory.Registry's backing slabs. It reads the runtime's
// allocation profile (MemProfileRate must be 1), which leaves out what the
// event queue and the packet pools allocate around the WRITEs.
func slabMallocs() int64 {
	runtime.GC() // the profile trails by up to two collection cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "memory.(*slab[") {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestTwinsNeverSeeEachOthersWrites: a region that shares another's units
// (memory.Region.Share) and the region it shares them with take RDMA
// WRITEs, a COMPARE_SWAP and a FETCH_ADD on units they share, and each
// lands in its target only: the other twin reads what it read before.
func TestTwinsNeverSeeEachOthersWrites(t *testing.T) {
	pe := newPair(t, nic.RC)
	const n = 6 * 4096
	loaded := pattern(n, 5)
	poke(pe.srv, 0, loaded)
	twin := pe.c.Hosts[1].Mem.Register(pe.srv.Len(), memory.PageSize2M,
		memory.LocalWrite|memory.RemoteRead|memory.RemoteWrite|memory.RemoteAtomic)
	twin.Share(pe.srv)
	refs := map[*memory.Region][]byte{pe.srv: append([]byte(nil), loaded...), twin: append([]byte(nil), loaded...)}
	poke(pe.cli, 0, pattern(300, 6))
	for i, op := range []struct {
		to   *memory.Region
		at   int
		wr   nic.SendWR
		land []byte
	}{
		{pe.srv, 4096 - 100, nic.SendWR{Op: nic.OpWrite, Len: 300}, pattern(300, 6)},
		{twin, 2*4096 + 8, nic.SendWR{Op: nic.OpWrite, Len: 200}, pattern(200, 6)},
		{twin, 3*4096 + 64, nic.SendWR{Op: nic.OpFetchAdd, Len: 8, Add: 9}, nil},
		{pe.srv, 5*4096 + 16, nic.SendWR{Op: nic.OpCompSwap, Len: 8, Swap: 0xabcd}, nil},
	} {
		wr := op.wr
		wr.LKey, wr.LAddr = pe.cli.LKey, pe.cli.Base+1024
		if wr.Op == nic.OpWrite {
			wr.LAddr = pe.cli.Base
		}
		wr.RKey, wr.RAddr = op.to.RKey, op.to.Base+uint64(op.at)
		ref := refs[op.to]
		switch wr.Op {
		case nic.OpFetchAdd:
			op.land = binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(ref[op.at:])+wr.Add)
		case nic.OpCompSwap:
			wr.Compare = binary.LittleEndian.Uint64(ref[op.at:])
			op.land = binary.LittleEndian.AppendUint64(nil, wr.Swap)
		}
		post(t, pe, wr)
		copy(ref[op.at:], op.land)
		for r, want := range refs {
			if !bytes.Equal(peek(r, 0, n), want[:n]) {
				t.Fatalf("op %d (%v on the %s): the %s reads wrong", i, wr.Op, name(op.to, twin), name(r, twin))
			}
		}
	}
}

func name(r, twin *memory.Region) string {
	if r == twin {
		return "borrower"
	}
	return "lender"
}
