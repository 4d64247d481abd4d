package scalerpc

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// The warm-up fetch READs each staged block at the exact span its endpoint
// entry names, and skips a block of span 0. These tests pin a mixed round,
// a restaged round with an answered hole below a busy block, and a round
// with nothing left to fetch.

// fetchRig is a server that is never started, with one backdoor client in
// a single group: the test plays the scheduler, so each warm-up fetch runs
// exactly when it says and nothing else touches the pools.
type fetchRig struct {
	c    *cluster.Cluster
	s    *Server
	conn *Conn
	cs   *clientState
}

func newFetchRig() *fetchRig {
	c := cluster.New(cluster.Default(2))
	s := NewServer(c.Hosts[0], DefaultServerConfig())
	s.Register(1, func(_ *host.Thread, _ uint16, req, out []byte) int { return copy(out, req) })
	conn := s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	r := &fetchRig{c: c, s: s, conn: conn, cs: s.clients[conn.ID()]}
	r.server(func(th *host.Thread) {
		s.applyPending(th, nil, false)
		s.assignWarm(th) // the one group's zone in the processing pool
	})
	return r
}

// on runs fn on a thread of host h, then lets everything it posted land.
func (r *fetchRig) on(h *host.Host, fn func(th *host.Thread)) {
	h.Spawn("step", fn)
	r.c.Env.RunUntil(r.c.Env.Now() + 50*sim.Microsecond)
}

func (r *fetchRig) client(fn func(th *host.Thread)) { r.on(r.c.Hosts[1], fn) }
func (r *fetchRig) server(fn func(th *host.Thread)) { r.on(r.c.Hosts[0], fn) }

// poll runs one client Poll: it takes any response that has landed and
// publishes the endpoint entry if it changed.
func (r *fetchRig) poll() {
	r.client(func(th *host.Thread) { r.conn.Poll(th, func(rpccore.Response) {}) })
}

// fetch runs one warm-up fetch of the client's group and returns the READs
// it posted, the bytes they moved and the doorbells the server rang.
func (r *fetchRig) fetch() (reads, moved, doorbells uint64) {
	st, mmio := r.s.Stats, r.s.Host.Bus.Snapshot().MMIOWr
	r.server(func(th *host.Thread) { r.s.fetchGroup(th, 0, processing) })
	return r.s.Stats.WarmupReads - st.WarmupReads, r.s.Stats.WarmupBytes - st.WarmupBytes,
		r.s.Host.Bus.Snapshot().MMIOWr - mmio
}

// fetched decodes the request the fetch left in block b of the client's zone.
func (r *fetchRig) fetched(t *testing.T, b int) (rpcwire.Header, []byte) {
	t.Helper()
	var buf []byte
	msg, _, err := r.s.processingPool().ReadFrame(r.cs.zones[processing], b, &buf)
	if err != nil {
		t.Fatalf("block %d: %v", b, err)
	}
	hdr, body, err := rpcwire.ParseHeader(msg)
	if err != nil {
		t.Fatalf("block %d: %v", b, err)
	}
	return hdr, body
}

// frameSpan is the encoded span of a request with an n-byte payload.
func frameSpan(n int) uint64 { return uint64(rpcwire.HeaderSize + n + rpcwire.TrailerSize) }

// stage stages one request per payload size, ids from 1, and publishes the
// round's endpoint entry.
func (r *fetchRig) stage(t *testing.T, sizes ...int) {
	r.client(func(th *host.Thread) {
		for i, n := range sizes {
			if !r.conn.TrySend(th, 1, make([]byte, n), uint64(i+1)) {
				t.Errorf("staging request %d refused", i+1)
			}
		}
	})
	r.poll()
}

// TestWarmupMixedRoundFetchesEachSpan: a 16 B get staged beside a 2 KB put
// is fetched at its own span, not the put's. A max-span entry moves twice
// the put's span.
func TestWarmupMixedRoundFetchesEachSpan(t *testing.T) {
	r := newFetchRig()
	defer r.c.Close()
	r.stage(t, 16, 2048)
	reads, moved, doorbells := r.fetch()
	if want := frameSpan(16) + frameSpan(2048); reads != 2 || moved != want || doorbells != 1 {
		t.Fatalf("%d READs moved %d bytes behind %d doorbells, want 2 moving %d behind 1", reads, moved, doorbells, want)
	}
	for b, n := range []int{16, 2048} {
		if hdr, body := r.fetched(t, b); hdr.ReqID != uint64(b+1) || len(body) != n {
			t.Errorf("block %d holds request %d of %d bytes, want %d of %d", b, hdr.ReqID, len(body), b+1, n)
		}
	}
}

// restageAndAnswerFirst fetches a round of two 2 KB requests, has a context
// switch restage both in a fresh round, and answers the first with a
// late-swept response — switch flag, no zone — before the server fetches
// the new round. The client stays in WARMUP with slot 1 busy above the
// answered hole at slot 0.
func restageAndAnswerFirst(t *testing.T, r *fetchRig) {
	t.Helper()
	r.stage(t, 2048, 2048)
	if reads, _, _ := r.fetch(); reads != 2 {
		t.Fatalf("first round: %d READs, want 2", reads)
	}
	r.client(func(th *host.Thread) { r.conn.onContextSwitch(th) })
	hdr, body := r.fetched(t, 0)
	r.server(func(th *host.Thread) {
		// The switch took the client out of the pool; the next rotation
		// hands its zone back.
		zone := r.cs.zones[processing]
		r.s.unbind(r.cs, -1, processing)
		out := r.s.schedOutbox()
		r.s.execute(th, out, r.cs, 0, hdr, body, byLateSweep)
		out.Post(th, r.cs.QP)
		r.s.bind(r.cs, zone, processing)
	})
	r.poll()
	if r.conn.State() != StateWarmup || r.conn.LateCompletions != 1 || r.conn.Outstanding() != 1 {
		t.Fatalf("after the late answer: %v, %d late completions, %d outstanding; want WARMUP, 1, 1",
			r.conn.State(), r.conn.LateCompletions, r.conn.Outstanding())
	}
}

// TestRestagedRoundSkipsAnsweredHole: the restaged round advertises two
// blocks, but slot 0 was answered before the fetch, so only block 1 is
// READ.
func TestRestagedRoundSkipsAnsweredHole(t *testing.T) {
	r := newFetchRig()
	defer r.c.Close()
	restageAndAnswerFirst(t, r)
	r.poll() // publishes the entry with the hole
	reads, moved, _ := r.fetch()
	if reads != 1 || moved != frameSpan(2048) {
		t.Fatalf("%d READs moved %d bytes, want 1 of %d", reads, moved, frameSpan(2048))
	}
	if hdr, _ := r.fetched(t, 1); hdr.ReqID != 2 {
		t.Fatalf("block 1 holds request %d, want 2", hdr.ReqID)
	}
}

// TestAnsweredRoundPostsNoRead: once the last busy slot of the restaged
// round is withdrawn too (a caller's deadline), the entry advertises no
// block, and the fetch posts nothing and rings no doorbell.
func TestAnsweredRoundPostsNoRead(t *testing.T) {
	r := newFetchRig()
	defer r.c.Close()
	restageAndAnswerFirst(t, r)
	r.client(func(th *host.Thread) {
		if !r.conn.Cancel(th, 2) {
			t.Error("cancel refused")
		}
	})
	r.poll()
	if reads, moved, doorbells := r.fetch(); reads != 0 || moved != 0 || doorbells != 0 {
		t.Fatalf("%d READs moved %d bytes behind %d doorbells, want none", reads, moved, doorbells)
	}
	if r.cs.advertised != 0 {
		t.Fatalf("advertised %d, want 0: nothing is left unanswered", r.cs.advertised)
	}
}

// TestCancelLowersAdvertisedCount: withdrawing the top busy slot of a
// warm-up round lowers the count the next endpoint entry advertises, so the
// server's scan edge does not stay above a block nothing will fill.
func TestCancelLowersAdvertisedCount(t *testing.T) {
	r := newFetchRig()
	defer r.c.Close()
	r.stage(t, 16, 16, 16)
	r.client(func(th *host.Thread) {
		if !r.conn.Cancel(th, 3) {
			t.Error("cancel refused")
		}
	})
	r.poll()
	if count, _, _ := r.s.readEndpointEntry(r.conn.ID()); count != 2 {
		t.Fatalf("the entry advertises %d blocks, want 2", count)
	}
	if reads, _, _ := r.fetch(); reads != 2 || r.cs.advertised != 2 {
		t.Fatalf("%d READs, advertised %d; want 2 and 2", reads, r.cs.advertised)
	}
}
