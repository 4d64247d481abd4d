// Package rpctest runs one conformance suite across all five RPC
// transports (ScaleRPC, RawWrite, HERD, FaSST, selfRPC), checking that they behave
// identically at the interface level: payload integrity, request/response
// correlation, window limits, error propagation, and progress under load.
package rpctest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/baseline/table2"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// transport abstracts server construction across implementations.
type transport struct {
	name string
	// build creates a started server on the cluster's host 0 and returns a
	// connect function. workers sizes ScaleRPC's thread pool; the Table 2
	// baselines run at their defaults.
	build func(c *cluster.Cluster, workers int, reg func(rpccore.Server)) table2.Connect
}

func transports() []transport {
	ts := []transport{
		{"scalerpc", func(c *cluster.Cluster, workers int, reg func(rpccore.Server)) table2.Connect {
			cfg := scalerpc.DefaultServerConfig()
			cfg.Workers = workers
			cfg.GroupSize = 8
			cfg.TimeSlice = 50 * sim.Microsecond
			cfg.BlocksPerClient = 8
			s := scalerpc.NewServer(c.Hosts[0], cfg)
			reg(s)
			s.Start()
			return func(h *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(h, sig) }
		}},
	}
	for _, name := range []string{"rawwrite", "herd", "fasst", "selfrpc"} {
		name := name
		ts = append(ts, transport{name, func(c *cluster.Cluster, _ int, reg func(rpccore.Server)) table2.Connect {
			connect, err := table2.Start(name, c.Hosts[0], reg)
			if err != nil {
				panic(err)
			}
			return connect
		}})
	}
	return ts
}

// runUntil advances the cluster until done reports true or the limit
// passes, so a finished case does not simulate idle server polling.
func runUntil(c *cluster.Cluster, limit sim.Time, done func() bool) {
	for !done() && c.Env.Now() < limit {
		c.Env.RunUntil(c.Env.Now() + 100*sim.Microsecond)
	}
}

func registerEcho(s rpccore.Server) {
	s.Register(1, func(t *host.Thread, id uint16, req, out []byte) int {
		t.Work(100)
		return copy(out, req)
	})
	s.Register(2, func(t *host.Thread, id uint16, req, out []byte) int {
		// Returns the square of a uint32 plus the caller's id.
		v := binary.LittleEndian.Uint32(req)
		binary.LittleEndian.PutUint64(out, uint64(v)*uint64(v))
		binary.LittleEndian.PutUint16(out[8:], id)
		return 10
	})
}

func TestEchoAllTransports(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 2, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			want := []byte("conformance-payload-123")
			var got []byte
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				for !conn.TrySend(th, 1, want, 42) {
					conn.Poll(th, func(rpccore.Response) {})
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
				for got == nil {
					conn.Poll(th, func(r rpccore.Response) {
						if r.ReqID == 42 {
							got = append([]byte(nil), r.Payload...)
						}
					})
					if got == nil {
						sig.WaitTimeout(th.P, 10*sim.Microsecond)
					}
				}
			})
			runUntil(c, 10*sim.Millisecond, func() bool { return got != nil })
			if !bytes.Equal(got, want) {
				t.Fatalf("echo = %q, want %q", got, want)
			}
		})
	}
}

func TestComputeHandlerAndClientID(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 2, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			req := make([]byte, 4)
			binary.LittleEndian.PutUint32(req, 7)
			var sq uint64
			done := false
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				for !conn.TrySend(th, 2, req, 1) {
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
				for !done {
					conn.Poll(th, func(r rpccore.Response) {
						sq = binary.LittleEndian.Uint64(r.Payload)
						done = true
					})
					if !done {
						sig.WaitTimeout(th.P, 10*sim.Microsecond)
					}
				}
			})
			runUntil(c, 10*sim.Millisecond, func() bool { return done })
			if !done || sq != 49 {
				t.Fatalf("square(7) = %d (done=%v)", sq, done)
			}
		})
	}
}

func TestUnknownHandlerErrorAllTransports(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 1, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			var gotErr, done bool
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				for !conn.TrySend(th, 99, []byte("x"), 3) {
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
				for !done {
					conn.Poll(th, func(r rpccore.Response) { gotErr, done = r.Err, true })
					if !done {
						sig.WaitTimeout(th.P, 10*sim.Microsecond)
					}
				}
			})
			runUntil(c, 10*sim.Millisecond, func() bool { return done })
			if !done || !gotErr {
				t.Fatalf("done=%v err=%v, want error response", done, gotErr)
			}
		})
	}
}

func TestThroughputUnderLoadAllTransports(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(3))
			defer c.Close()
			connect := tr.build(c, 4, registerEcho)
			horizon := sim.Millisecond
			var stats []*rpccore.DriverStats
			for hi := 1; hi <= 2; hi++ {
				for i := 0; i < 8; i++ {
					sig := sim.NewSignal(c.Env)
					conn := connect(c.Hosts[hi], sig)
					st := &rpccore.DriverStats{}
					stats = append(stats, st)
					hi := hi
					c.Hosts[hi].Spawn("drv", func(th *host.Thread) {
						*st = rpccore.RunDriver(th, []rpccore.Conn{conn}, rpccore.DriverConfig{
							Batch: 4, Handler: 1, PayloadSize: 32, Seed: uint64(i),
						}, sig, func() bool { return th.P.Now() >= horizon })
					})
				}
			}
			c.Env.RunUntil(horizon + sim.Millisecond)
			var total uint64
			for _, st := range stats {
				if st.Completed == 0 {
					t.Fatal("a client starved")
				}
				total += st.Completed
			}
			if total < 250 {
				t.Fatalf("only %d ops in 1 ms", total)
			}
		})
	}
}

func TestPayloadSizesAllTransports(t *testing.T) {
	// Sizes from tiny to near-block-size must round-trip bit-exactly.
	sizes := []int{0, 1, 8, 32, 100, 512, 1024, 3000}
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 2, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			fail, finished := "", false
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				for i, sz := range sizes {
					want := make([]byte, sz)
					for j := range want {
						want[j] = byte(i + j)
					}
					for !conn.TrySend(th, 1, want, uint64(i)) {
						conn.Poll(th, func(rpccore.Response) {})
						sig.WaitTimeout(th.P, 10*sim.Microsecond)
					}
					done := false
					for !done {
						conn.Poll(th, func(r rpccore.Response) {
							if r.ReqID != uint64(i) {
								return
							}
							if !bytes.Equal(r.Payload, want) {
								fail = fmt.Sprintf("size %d corrupted (%d bytes back)", sz, len(r.Payload))
							}
							done = true
						})
						if !done {
							sig.WaitTimeout(th.P, 10*sim.Microsecond)
						}
					}
				}
				finished = true
			})
			runUntil(c, 50*sim.Millisecond, func() bool { return finished || fail != "" })
			if fail != "" || !finished {
				t.Fatalf("finished=%v %s", finished, fail)
			}
		})
	}
}

// TestWindowAccountingAllTransports: a window filled to SlotCount refuses
// the next send; Resend and Cancel of an id not in flight are refused
// wherever the transport implements them; and once every call is answered
// nothing is outstanding. ScaleRPC warms up with one call first, so it
// fills its window with direct pool WRITEs in PROCESS.
func TestWindowAccountingAllTransports(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 2, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := connect(c.Hosts[1], sig)
			fail, finished := "", false
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				defer func() { finished = true }()
				answered := 0
				collect := func(rpccore.Response) { answered++ }
				// awaitAnswers polls until want calls are answered, then
				// reports whether the window reads empty.
				awaitAnswers := func(want int) bool {
					for answered < want && th.P.Now() < 5*sim.Millisecond {
						if conn.Poll(th, collect) == 0 {
							sig.WaitTimeout(th.P, 10*sim.Microsecond)
						}
					}
					if answered != want || conn.Outstanding() != 0 {
						fail = fmt.Sprintf("%d of %d calls answered, %d outstanding; want all, 0", answered, want, conn.Outstanding())
						return false
					}
					return true
				}
				// refusesUnknown checks that Resend and Cancel refuse id.
				refusesUnknown := func(id uint64) bool {
					if rs, ok := conn.(rpccore.Resender); ok && rs.Resend(th, id) {
						fail = fmt.Sprintf("resend of id %d accepted", id)
						return false
					}
					if cn, ok := conn.(rpccore.Canceler); ok && cn.Cancel(th, id) {
						fail = fmt.Sprintf("cancel of id %d accepted", id)
						return false
					}
					return true
				}

				if !conn.TrySend(th, 1, []byte("warm"), 0) {
					fail = "warm-up send refused"
					return
				}
				if !awaitAnswers(1) {
					return
				}
				if sc, ok := conn.(*scalerpc.Conn); ok && sc.State() != scalerpc.StateProcess {
					fail = fmt.Sprintf("after the warm-up call: %v, want PROCESS", sc.State())
					return
				}
				n := conn.SlotCount()
				for id := 1; id <= n; id++ {
					if !conn.TrySend(th, 1, []byte("fill"), uint64(id)) {
						fail = fmt.Sprintf("send %d of a %d-slot window refused", id, n)
						return
					}
				}
				if conn.TrySend(th, 1, []byte("over"), uint64(n+1)) {
					fail = fmt.Sprintf("send %d into a full %d-slot window accepted", n+1, n)
					return
				}
				if !refusesUnknown(uint64(n+1)) || !refusesUnknown(0) {
					return
				}
				if conn.Outstanding() != n {
					fail = fmt.Sprintf("%d outstanding in a full %d-slot window", conn.Outstanding(), n)
					return
				}
				if awaitAnswers(n + 1) {
					refusesUnknown(1)
				}
			})
			runUntil(c, 10*sim.Millisecond, func() bool { return finished })
			if fail != "" || !finished {
				t.Fatalf("finished=%v %s", finished, fail)
			}
		})
	}
}
