package ctrlplane_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// step drives the simulation in small increments until cond holds or limit
// virtual time elapses (cluster procs run forever, so Env.Run never idles).
func step(t *testing.T, c *cluster.Cluster, limit sim.Duration, cond func() bool) {
	t.Helper()
	deadline := c.Env.Now() + limit
	for !cond() {
		if c.Env.Now() >= deadline {
			t.Fatalf("condition not reached within %d ns", limit)
		}
		c.Env.RunUntil(c.Env.Now() + 10_000)
	}
}

// testPlane builds a cluster with managers using cfg and an echo service on
// host 0.
func testPlane(t *testing.T, hosts int, cfg ctrlplane.Config) (*cluster.Cluster, *ctrlplane.Directory, *ctrlplane.EchoService) {
	t.Helper()
	c := cluster.New(cluster.Default(hosts))
	t.Cleanup(c.Close)
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	svc := ctrlplane.NewEchoService()
	dir.Manager(0).RegisterService("echo", svc)
	return c, dir, svc
}

func TestDialColdThenCachedResume(t *testing.T) {
	c, dir, svc := testPlane(t, 2, ctrlplane.DefaultConfig())
	m := dir.Manager(1)

	var conn *ctrlplane.Conn
	var coldNs, cachedNs sim.Duration
	var dialErr error
	done := 0
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		start := th.P.Now()
		conn, dialErr = m.Dial(th, 0, "echo", []byte("hello"))
		coldNs = th.P.Now() - start
		done = 1
		if dialErr != nil {
			return
		}
		conn.Close(th)
		th.P.Sleep(20_000)
		start = th.P.Now()
		conn, dialErr = m.Dial(th, 0, "echo", []byte("again"))
		cachedNs = th.P.Now() - start
		done = 2
	})
	step(t, c, 5_000_000, func() bool { return done == 2 })
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	if string(conn.Payload) != "again" {
		t.Fatalf("payload = %q, want echo of dial payload", conn.Payload)
	}
	if !conn.Cached {
		t.Fatal("second dial should resume from cache")
	}
	if svc.Live == nil || len(svc.Live) != 1 {
		t.Fatalf("service live handles = %d, want 1", len(svc.Live))
	}
	// Cold setup pays CreateQP + INIT/RTR/RTS on both sides; the cached
	// resume is a single control round trip. The ≥10x separation is the
	// connsetup acceptance bar.
	if coldNs < 40_000 {
		t.Fatalf("cold dial took %d ns; QP setup latencies not charged", coldNs)
	}
	if cachedNs*10 > coldNs {
		t.Fatalf("cached dial %d ns vs cold %d ns: want >=10x cheaper", cachedNs, coldNs)
	}
	st := m.Stats
	if st.DialsCold != 1 || st.DialsCached != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 cold, 1 cached, 1 hit", st)
	}
}

// TestDialedPairCarriesData proves the in-band handshake exchanges working
// QPN/PSN state: an RDMA write posted on the dialed QP lands in the
// server-side region.
func TestDialedPairCarriesData(t *testing.T) {
	c, dir, _ := testPlane(t, 2, ctrlplane.DefaultConfig())

	dst := c.Hosts[0].Mem.Register(4096, memory.PageSize4K,
		memory.LocalWrite|memory.RemoteWrite)
	src := c.Hosts[1].Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
	src.WriteAt([]byte("in-band!"), 0)

	done := false
	c.Hosts[1].Spawn("writer", func(th *host.Thread) {
		conn, err := dir.Manager(1).Dial(th, 0, "echo", nil)
		if err != nil {
			t.Error(err)
			done = true
			return
		}
		if conn.QP.State() != nic.QPRTS {
			t.Errorf("dialed QP state = %v, want RTS", conn.QP.State())
		}
		th.PostSend(conn.QP, nic.SendWR{
			WRID: 1, Op: nic.OpWrite, Signaled: true,
			LKey: src.LKey, LAddr: src.Base, Len: 8,
			RKey: dst.RKey, RAddr: dst.Base,
		})
		done = true
	})
	step(t, c, 5_000_000, func() bool { return done && string(bytesAt(dst, 0, 8)) == "in-band!" })
}

func TestDialUnknownServiceRejected(t *testing.T) {
	c, dir, _ := testPlane(t, 2, ctrlplane.DefaultConfig())
	var err error
	done := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		_, err = dir.Manager(1).Dial(th, 0, "nope", nil)
		done = true
	})
	step(t, c, 5_000_000, func() bool { return done })
	var rej *ctrlplane.RejectError
	if err == nil {
		t.Fatal("dial to unknown service succeeded")
	}
	if ok := errorsAs(err, &rej); !ok {
		t.Fatalf("err = %v, want RejectError", err)
	}
}

func errorsAs(err error, target **ctrlplane.RejectError) bool {
	if e, ok := err.(*ctrlplane.RejectError); ok {
		*target = e
		return true
	}
	return false
}

// TestLeaseExpiryOnCrash crashes the client host; its keepalives stop (the
// fault plane drops everything to/from a down node) and the server evicts
// the connection when the lease lapses.
func TestLeaseExpiryOnCrash(t *testing.T) {
	cfg := ctrlplane.DefaultConfig()
	c := cluster.New(cluster.Default(2))
	t.Cleanup(c.Close)
	plane := c.InstallFaults(&faults.Scenario{Name: "crash-client"})
	dir := ctrlplane.NewDirectory()
	for _, h := range c.Hosts {
		ctrlplane.NewManager(h, cfg, dir).Start()
	}
	svc := ctrlplane.NewEchoService()
	srv := dir.Manager(0)
	srv.RegisterService("echo", svc)

	dialed := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
			t.Error(err)
		}
		dialed = true
	})
	step(t, c, 5_000_000, func() bool { return dialed && srv.ActiveConns() == 1 })

	plane.CrashNode(1)
	step(t, c, 10*cfg.LeaseTTL, func() bool { return srv.ActiveConns() == 0 })
	if srv.Stats.LeaseExpiries != 1 {
		t.Fatalf("lease expiries = %d, want 1", srv.Stats.LeaseExpiries)
	}
	if len(svc.Dropped) != 1 {
		t.Fatalf("dropped handles = %d, want 1", len(svc.Dropped))
	}
	for _, reason := range svc.Dropped {
		if reason != ctrlplane.CloseExpired {
			t.Fatalf("close reason = %v, want expired", reason)
		}
	}
	found := false
	for _, e := range srv.Events {
		if e.Kind == "expire" {
			found = true
		}
	}
	if !found {
		t.Fatal("no expire event logged")
	}
}

// TestLeaseLapsed reads the lease predicate in both detector modes: false
// before the peer's first keepalive, false while keepalives arrive, and
// true once LeaseTTL has passed since the last one. Keepalives refresh the
// lease whatever the mode, so a caller can rely on it in either.
func TestLeaseLapsed(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptive), func(t *testing.T) {
			cfg := ctrlplane.DefaultConfig()
			cfg.Adaptive = adaptive
			c := cluster.New(cluster.Default(2))
			t.Cleanup(c.Close)
			plane := c.InstallFaults(&faults.Scenario{Name: "crash-client"})
			dir := ctrlplane.NewDirectory()
			for _, h := range c.Hosts {
				ctrlplane.NewManager(h, cfg, dir).Start()
			}
			srv := dir.Manager(0)
			srv.RegisterService("echo", ctrlplane.NewEchoService())

			// No keepalive yet: a peer never heard from has no lease to lapse.
			c.Env.RunUntil(2 * cfg.LeaseTTL)
			if srv.LeaseLapsed(1) {
				t.Fatal("lease lapsed before the peer was ever heard from")
			}
			c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
				if _, err := dir.Manager(1).Dial(th, 0, "echo", nil); err != nil {
					t.Error(err)
				}
			})

			// Step 1 µs at a time, tracking each keepalive arrival to
			// within its step: (before, at] brackets the last one.
			const tick = 1_000
			var before, at sim.Time
			seen := srv.Stats.KeepalivesRx
			advance := func() {
				now := c.Env.Now()
				c.Env.RunUntil(now + tick)
				if srv.Stats.KeepalivesRx != seen {
					seen, before, at = srv.Stats.KeepalivesRx, now, c.Env.Now()
				}
			}
			for end := c.Env.Now() + 4*cfg.LeaseTTL; c.Env.Now() < end; {
				advance()
				if srv.LeaseLapsed(1) {
					t.Fatalf("lease lapsed at %d with keepalives arriving (last in (%d, %d])", c.Env.Now(), before, at)
				}
			}
			if seen < 3 {
				t.Fatalf("%d keepalives received, want a steady stream", seen)
			}

			plane.CrashNode(1)
			for !srv.LeaseLapsed(1) {
				if c.Env.Now() > at+2*cfg.LeaseTTL {
					t.Fatalf("lease still held %d ns after the last keepalive", c.Env.Now()-at)
				}
				advance()
			}
			if now := c.Env.Now(); now <= before+cfg.LeaseTTL || now > at+cfg.LeaseTTL+tick {
				t.Fatalf("lease lapsed at %d, want just past LeaseTTL after the last keepalive in (%d, %d]", now, before, at)
			}
		})
	}
}

// TestIdleTeardownAndCapEviction exercises both cache-bounding mechanisms.
func TestIdleTeardownAndCapEviction(t *testing.T) {
	const cacheCap, idleTimeout = 2, 300_000
	c, dir, svc := testPlane(t, 2, ctrlplane.DefaultConfig())
	for i := range c.Hosts {
		dir.Manager(i).SetCacheBounds(cacheCap, idleTimeout)
	}
	srv := dir.Manager(0)

	done := false
	c.Hosts[1].Spawn("dialer", func(th *host.Thread) {
		// Hold 4 connections open, then gracefully close them all: the cap
		// (2) forces two evictions from the server cache.
		var conns []*ctrlplane.Conn
		for i := 0; i < 4; i++ {
			conn, err := dir.Manager(1).Dial(th, 0, "echo", nil)
			if err != nil {
				t.Error(err)
				break
			}
			conns = append(conns, conn)
		}
		for _, conn := range conns {
			conn.Close(th)
			th.P.Sleep(1_000)
		}
		done = true
	})
	step(t, c, 10_000_000, func() bool { return done })
	step(t, c, 1_000_000, func() bool { return srv.CachedConns() <= cacheCap })
	if srv.Stats.CapEvictions < 2 {
		t.Fatalf("cap evictions = %d, want >= 2", srv.Stats.CapEvictions)
	}
	// The survivors age out via the idle timeout.
	step(t, c, 20*idleTimeout, func() bool { return srv.CachedConns() == 0 })
	if srv.Stats.IdleTeardowns == 0 {
		t.Fatal("no idle teardowns recorded")
	}
	if len(svc.Parked) != 0 {
		t.Fatalf("service still has %d parked handles after teardown", len(svc.Parked))
	}
}

// lifecycleSvc is an EchoService that logs every admission and departure
// into a shared transcript, refuses payload "refuse" on both Accept and
// Resume, and remembers each connection's server-side QP by dial payload
// so a script can fail it.
type lifecycleSvc struct {
	*ctrlplane.EchoService
	name string
	now  func() sim.Time
	log  *[]string
	qps  map[string]*nic.QP
}

func (s *lifecycleSvc) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	if string(payload) == "refuse" {
		*s.log = append(*s.log, fmt.Sprintf("%d svc %s accept peer=%d refused", s.now(), s.name, peer))
		return nil, 0, errors.New("refused")
	}
	resp, handle, err := s.EchoService.Accept(t, peer, qp, payload)
	s.qps[string(payload)] = qp
	*s.log = append(*s.log, fmt.Sprintf("%d svc %s accept peer=%d qpn=%d handle=%d", s.now(), s.name, peer, qp.QPN, handle))
	return resp, handle, err
}

func (s *lifecycleSvc) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	if string(payload) == "refuse" {
		*s.log = append(*s.log, fmt.Sprintf("%d svc %s resume peer=%d qpn=%d handle=%d refused", s.now(), s.name, peer, qp.QPN, handle))
		return nil, 0, errors.New("refused")
	}
	resp, h, err := s.EchoService.Resume(t, peer, qp, payload, handle)
	s.qps[string(payload)] = qp
	*s.log = append(*s.log, fmt.Sprintf("%d svc %s resume peer=%d qpn=%d handle=%d", s.now(), s.name, peer, qp.QPN, h))
	return resp, h, err
}

func (s *lifecycleSvc) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {
	s.EchoService.Closed(peer, handle, reason)
	*s.log = append(*s.log, fmt.Sprintf("%d svc %s closed peer=%d handle=%d %v", s.now(), s.name, peer, handle, reason))
}

// gatedLifecycleSvc adds a Gatekeeper whose verdict the script sets.
type gatedLifecycleSvc struct {
	*lifecycleSvc
	gate error
}

func (g *gatedLifecycleSvc) PreAdmit(peer int, svc string, payload []byte) error { return g.gate }

// TestManagerLifecycleLog drives one small cluster through every
// connection-lifecycle path of the manager and compares the whole
// transcript — each manager's event log and counters, every Service call
// and every dial outcome — against a recorded golden. Host 0 serves; host 1
// runs the main script; host 2 crashes holding a connection; host 3 loses
// its first accept to a partition and parks connections that push host 0's
// cache over its cap.
//
// Paths, in script order: cold accept, unknown-service reject, Accept
// refusal, graceful leave, cached resume (LIFO), Resume refusal falling
// back to a cold dial, client cap eviction on a parkedAt tie, server cap
// eviction, a stale cached pair falling back cold, an errored parked QP
// skipped by Dial, duplicate-connect replay, QP-error eviction, ungraceful
// teardown, lease expiry after a crash, a connect and a resume through an
// open Gatekeeper, a Gatekeeper reject, and idle teardown on both sides.
func TestManagerLifecycleLog(t *testing.T) {
	c := cluster.New(cluster.Default(4))
	t.Cleanup(c.Close)
	c.InstallFaults(&faults.Scenario{
		Name: "lifecycle",
		Links: []faults.LinkFault{{
			Src: 0, Dst: 3, From: 4_000_000, Until: 4_100_000,
			DropRate: 1, Class: faults.ClassControl,
		}},
		Crashes: []faults.Crash{{Node: 2, At: 6_000_000}},
	})

	dir := ctrlplane.NewDirectory()
	for i, h := range c.Hosts {
		m := ctrlplane.NewManager(h, ctrlplane.DefaultConfig(), dir)
		if i == 0 {
			m.SetCacheBounds(3, 3_009_092)
		} else {
			m.SetCacheBounds(2, 4_017_670)
		}
		m.Start()
	}

	var log []string
	now := c.Env.Now
	newSvc := func(name string) *lifecycleSvc {
		return &lifecycleSvc{EchoService: ctrlplane.NewEchoService(), name: name, now: now, log: &log, qps: map[string]*nic.QP{}}
	}
	echo, echo2 := newSvc("echo"), newSvc("echo2")
	gated := &gatedLifecycleSvc{lifecycleSvc: newSvc("gate")}
	srv := dir.Manager(0)
	srv.RegisterService("echo", echo)
	srv.RegisterService("echo2", echo2)
	srv.RegisterService("gate", gated)
	srv.RegisterService("dup", newSvc("dup"))

	at := func(th *host.Thread, when sim.Time) { th.P.Sleep(when - th.P.Now()) }
	dial := func(th *host.Thread, svc, payload string) *ctrlplane.Conn {
		conn, err := dir.Manager(th.Host.ID).Dial(th, 0, svc, []byte(payload))
		if err != nil {
			log = append(log, fmt.Sprintf("%d h%d dial %s %q: %v", th.P.Now(), th.Host.ID, svc, payload, err))
			return nil
		}
		log = append(log, fmt.Sprintf("%d h%d dial %s %q: qpn=%d remote=%d cached=%v",
			th.P.Now(), th.Host.ID, svc, payload, conn.QP.QPN, conn.RemoteQPN(), conn.Cached))
		return conn
	}
	fail := func(qp *nic.QP) { qp.Modify(nic.QPErr, nic.ModifyAttr{}) }

	done := false
	c.Hosts[1].Spawn("script", func(th *host.Thread) {
		// Cold accept, rejects, leave, LIFO resume, Resume refusal.
		a1 := dial(th, "echo", "a1")
		dial(th, "nope", "x")
		dial(th, "echo", "refuse")
		a2 := dial(th, "echo", "a2")
		a1.Close(th)
		a2.Close(th)
		r := dial(th, "echo", "r")
		r.Close(th)
		dial(th, "echo", "refuse")
		held := dial(th, "echo", "held")

		// Two closes at one instant park a parkedAt tie; a third park
		// evicts the tie's lower QPN. Host 3's parks then push the server
		// halves of both out of host 0's cache.
		for i, name := range []string{"b1", "b2"} {
			c.Hosts[1].Spawn(name, func(th *host.Thread) {
				at(th, sim.Time(1_000_000+i*200_000))
				conn := dial(th, "echo", name)
				at(th, 2_000_000)
				conn.Close(th)
			})
		}
		at(th, 2_200_000)
		c1 := dial(th, "echo2", "c1")
		c1.Close(th)

		// Stale pair: the server half is gone, so resume falls back cold.
		at(th, 3_000_000)
		s := dial(th, "echo", "s")
		// An errored parked QP is skipped by Dial.
		fail(c1.QP)
		c2 := dial(th, "echo2", "c2")

		// QP-error eviction of held; ungraceful teardown of s.
		at(th, 5_000_000)
		fail(echo.qps["held"])
		fail(held.QP)
		at(th, 5_200_000)
		fail(echo.qps["s"])
		fail(s.QP)
		s.Close(th)
		c2.Close(th)

		// The Gatekeeper admits a connect and a resume, then rejects.
		at(th, 7_000_000)
		q1 := dial(th, "gate", "q1")
		at(th, 7_300_000)
		q1.Close(th)
		at(th, 7_400_000)
		q2 := dial(th, "gate", "q2")
		at(th, 7_700_000)
		q2.Close(th)
		gated.gate = errors.New("gate says no")
		dial(th, "gate", "q3")
		done = true
	})
	c.Hosts[2].Spawn("victim", func(th *host.Thread) {
		at(th, 100_000)
		dial(th, "echo", "g")
	})
	c.Hosts[3].Spawn("parker", func(th *host.Thread) {
		at(th, 2_500_000)
		d1 := dial(th, "echo", "d1")
		d1.Close(th)
		d2 := dial(th, "echo2", "d2")
		d2.Close(th)
		// The first accept is lost to the partition; the resend is a
		// duplicate the server answers by replaying it.
		at(th, 4_000_000)
		dial(th, "dup", "dup")
	})
	step(t, c, 20_000_000, func() bool { return done })
	c.Env.RunUntil(14_000_000)

	for _, h := range c.Hosts {
		m := dir.Manager(h.ID)
		for _, e := range m.Events {
			log = append(log, fmt.Sprintf("h%d event %d %s peer=%d qpn=%d handle=%d", h.ID, e.At, e.Kind, e.Peer, e.QPN, e.Handle))
		}
		log = append(log, fmt.Sprintf("h%d stats %+v", h.ID, m.Stats))
	}
	got := strings.Join(log, "\n") + "\n"
	if got != lifecycleGolden {
		t.Errorf("lifecycle transcript differs from the golden; got:\n%s", got)
	}
}

const lifecycleGolden = `31000 svc echo accept peer=1 qpn=2 handle=1
48110 h1 dial echo "a1": qpn=2 remote=2 cached=false
56904 h1 dial nope "x": ctrlplane: rejected: unknown service nope
86926 svc echo accept peer=1 refused
87796 h1 dial echo "refuse": ctrlplane: rejected: refused
117816 svc echo accept peer=1 qpn=4 handle=2
133946 h1 dial echo "a2": qpn=5 remote=4 cached=false
140261 svc echo accept peer=2 qpn=5 handle=3
140636 svc echo closed peer=1 handle=1 leave
140676 svc echo closed peer=1 handle=2 leave
140716 svc echo resume peer=1 qpn=4 handle=2
141584 h1 dial echo "r": qpn=5 remote=4 cached=true
142452 svc echo closed peer=1 handle=2 leave
142666 svc echo resume peer=1 qpn=4 handle=2 refused
156569 h2 dial echo "g": qpn=2 remote=5 cached=false
173558 svc echo accept peer=1 refused
174428 h1 dial echo "refuse": ctrlplane: rejected: refused
175298 svc echo resume peer=1 qpn=2 handle=1
176168 h1 dial echo "held": qpn=2 remote=2 cached=true
1030020 svc echo accept peer=1 qpn=7 handle=4
1046150 h1 dial echo "b1": qpn=7 remote=7 cached=false
1230020 svc echo accept peer=1 qpn=8 handle=5
1246150 h1 dial echo "b2": qpn=8 remote=8 cached=false
2000798 svc echo closed peer=1 handle=4 leave
2000968 svc echo closed peer=1 handle=5 leave
2229950 svc echo2 accept peer=1 qpn=9 handle=1
2246010 h1 dial echo2 "c1": qpn=9 remote=9 cached=false
2246838 svc echo2 closed peer=1 handle=1 leave
2530820 svc echo accept peer=3 qpn=10 handle=6
2547130 h3 dial echo "d1": qpn=2 remote=10 cached=false
2547998 svc echo closed peer=3 handle=6 leave
2547998 svc echo closed peer=1 handle=4 teardown
2577360 svc echo2 accept peer=3 qpn=11 handle=2
2593490 h3 dial echo2 "d2": qpn=3 remote=11 cached=false
2594358 svc echo2 closed peer=3 handle=2 leave
2594358 svc echo closed peer=1 handle=5 teardown
3031622 svc echo accept peer=1 qpn=12 handle=7
3047680 h1 dial echo "s": qpn=10 remote=12 cached=false
3077630 svc echo2 accept peer=1 qpn=13 handle=3
3093690 h1 dial echo2 "c2": qpn=11 remote=13 cached=false
4030020 svc dup accept peer=3 qpn=14 handle=1
4224260 h3 dial dup "dup": qpn=4 remote=14 cached=false
5006205 svc echo closed peer=1 handle=1 error
5200728 svc echo closed peer=1 handle=7 teardown
5200868 svc echo2 closed peer=1 handle=3 leave
5200868 svc echo2 closed peer=1 handle=1 teardown
5581780 svc echo closed peer=3 handle=6 teardown
5606805 svc echo2 closed peer=3 handle=2 teardown
6407605 svc echo closed peer=2 handle=3 expired
7029880 svc gate accept peer=1 qpn=15 handle=1
7045940 h1 dial gate "q1": qpn=12 remote=15 cached=false
7300728 svc gate closed peer=1 handle=1 leave
7400730 svc gate resume peer=1 qpn=15 handle=1
7401600 h1 dial gate "q2": qpn=12 remote=15 cached=true
7700728 svc gate closed peer=1 handle=1 leave
7710394 h1 dial gate "q3": ctrlplane: rejected: gate says no
8231290 svc echo2 closed peer=1 handle=3 teardown
10733790 svc gate closed peer=1 handle=1 teardown
h0 event 31000 accept peer=1 qpn=2 handle=1
h0 event 56030 reject peer=1 qpn=3 handle=0
h0 event 86926 reject peer=1 qpn=4 handle=0
h0 event 117816 accept peer=1 qpn=4 handle=2
h0 event 140261 accept peer=2 qpn=5 handle=3
h0 event 140636 leave peer=1 qpn=2 handle=1
h0 event 140676 leave peer=1 qpn=4 handle=2
h0 event 140716 resume peer=1 qpn=4 handle=2
h0 event 142452 leave peer=1 qpn=4 handle=2
h0 event 142666 reject peer=1 qpn=4 handle=0
h0 event 173558 reject peer=1 qpn=6 handle=0
h0 event 175298 resume peer=1 qpn=2 handle=1
h0 event 1030020 accept peer=1 qpn=7 handle=4
h0 event 1230020 accept peer=1 qpn=8 handle=5
h0 event 2000798 leave peer=1 qpn=7 handle=4
h0 event 2000968 leave peer=1 qpn=8 handle=5
h0 event 2229950 accept peer=1 qpn=9 handle=1
h0 event 2246838 leave peer=1 qpn=9 handle=1
h0 event 2530820 accept peer=3 qpn=10 handle=6
h0 event 2547998 leave peer=3 qpn=10 handle=6
h0 event 2547998 cap_evict peer=1 qpn=7 handle=4
h0 event 2577360 accept peer=3 qpn=11 handle=2
h0 event 2594358 leave peer=3 qpn=11 handle=2
h0 event 2594358 cap_evict peer=1 qpn=8 handle=5
h0 event 3000800 reject peer=1 qpn=8 handle=0
h0 event 3031622 accept peer=1 qpn=12 handle=7
h0 event 3077630 accept peer=1 qpn=13 handle=3
h0 event 4030020 accept peer=3 qpn=14 handle=1
h0 event 5006205 evict peer=1 qpn=2 handle=1
h0 event 5200728 teardown peer=1 qpn=12 handle=7
h0 event 5200868 leave peer=1 qpn=13 handle=3
h0 event 5200868 cap_evict peer=1 qpn=9 handle=1
h0 event 5581780 idle_teardown peer=3 qpn=10 handle=6
h0 event 5606805 idle_teardown peer=3 qpn=11 handle=2
h0 event 6407605 expire peer=2 qpn=5 handle=3
h0 event 7029880 accept peer=1 qpn=15 handle=1
h0 event 7300728 leave peer=1 qpn=15 handle=1
h0 event 7400730 resume peer=1 qpn=15 handle=1
h0 event 7700728 leave peer=1 qpn=15 handle=1
h0 event 7700870 reject peer=1 qpn=15 handle=0
h0 event 7709522 reject peer=1 qpn=13 handle=0
h0 event 8231290 idle_teardown peer=1 qpn=13 handle=3
h0 event 10733790 idle_teardown peer=1 qpn=15 handle=1
h0 stats {DialsCold:0 DialsCached:0 DialsFailed:0 Accepts:12 Resumes:3 Rejects:7 Leaves:11 LeaseExpiries:1 Evictions:1 CacheHits:0 CacheMisses:0 IdleTeardowns:4 CapEvictions:3 KeepalivesTx:0 KeepalivesRx:214 DetectorSuspicions:0 DetectorDemotions:0 DetectorEvictions:0 FalseEvictions:0 DetectorReadmits:0 DetectorProbes:0 PingsRx:0}
h1 event 2246150 cap_evict peer=0 qpn=7 handle=0
h1 event 9218230 idle_teardown peer=0 qpn=11 handle=0
h1 stats {DialsCold:8 DialsCached:3 DialsFailed:4 Accepts:0 Resumes:0 Rejects:0 Leaves:0 LeaseExpiries:0 Evictions:0 CacheHits:3 CacheMisses:12 IdleTeardowns:1 CapEvictions:1 KeepalivesTx:57 KeepalivesRx:0 DetectorSuspicions:0 DetectorDemotions:0 DetectorEvictions:0 FalseEvictions:0 DetectorReadmits:0 DetectorProbes:0 PingsRx:0}
h2 stats {DialsCold:1 DialsCached:0 DialsFailed:0 Accepts:0 Resumes:0 Rejects:0 Leaves:0 LeaseExpiries:0 Evictions:0 CacheHits:0 CacheMisses:1 IdleTeardowns:0 CapEvictions:0 KeepalivesTx:138 KeepalivesRx:0 DetectorSuspicions:0 DetectorDemotions:0 DetectorEvictions:0 FalseEvictions:0 DetectorReadmits:0 DetectorProbes:0 PingsRx:0}
h3 event 6586545 idle_teardown peer=0 qpn=2 handle=0
h3 event 6611570 idle_teardown peer=0 qpn=3 handle=0
h3 stats {DialsCold:3 DialsCached:0 DialsFailed:0 Accepts:0 Resumes:0 Rejects:0 Leaves:0 LeaseExpiries:0 Evictions:0 CacheHits:0 CacheMisses:3 IdleTeardowns:2 CapEvictions:0 KeepalivesTx:98 KeepalivesRx:0 DetectorSuspicions:0 DetectorDemotions:0 DetectorEvictions:0 FalseEvictions:0 DetectorReadmits:0 DetectorProbes:0 PingsRx:0}
`

// bytesAt returns a copy of region r's bytes [off, off+n).
func bytesAt(r *memory.Region, off, n int) []byte {
	b := make([]byte, n)
	r.ReadAt(b, int64(off))
	return b
}
