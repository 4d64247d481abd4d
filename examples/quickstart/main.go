// Quickstart: build a simulated RDMA cluster, start a ScaleRPC server with
// two handlers, connect a handful of clients, and make calls.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

const (
	handlerEcho = 1
	handlerAdd  = 2
)

func main() {
	// A 4-host cluster: host 0 is the server, hosts 1-3 run clients. The
	// default configuration mirrors the paper's testbed (24-core nodes,
	// 30 MB LLC, ConnectX-3-class NICs on a 56 Gbps switch).
	c := cluster.New(cluster.Default(4))
	defer c.Close()

	srv := scalerpc.NewServer(c.Hosts[0], scalerpc.DefaultServerConfig())
	srv.Register(handlerEcho, func(t *host.Thread, id uint16, req, out []byte) int {
		t.Work(100) // simulated application work
		return copy(out, req)
	})
	srv.Register(handlerAdd, func(t *host.Thread, id uint16, req, out []byte) int {
		a := binary.LittleEndian.Uint64(req)
		b := binary.LittleEndian.Uint64(req[8:])
		binary.LittleEndian.PutUint64(out, a+b)
		return 8
	})
	srv.Start()

	// Each client is a simulated thread on a client host. syncCall posts a
	// request and polls until its response arrives — the RPCClient walks
	// the paper's IDLE → WARMUP → PROCESS state machine underneath.
	for i := 0; i < 3; i++ {
		i := i
		ch := c.Hosts[1+i]
		sig := sim.NewSignal(c.Env)
		conn := srv.Connect(ch, sig)
		ch.Spawn("client", func(t *host.Thread) {
			echo := syncCall(t, conn, sig, handlerEcho, []byte(fmt.Sprintf("hello from client %d", i)), 1)
			fmt.Printf("[%6.2fus] client %d echo: %q (state %v)\n",
				float64(t.P.Now())/1000, i, echo, conn.State())

			req := make([]byte, 16)
			binary.LittleEndian.PutUint64(req, uint64(i*1000))
			binary.LittleEndian.PutUint64(req[8:], 42)
			sum := syncCall(t, conn, sig, handlerAdd, req, 2)
			fmt.Printf("[%6.2fus] client %d add: %d + 42 = %d\n",
				float64(t.P.Now())/1000, i, i*1000, binary.LittleEndian.Uint64(sum))
		})
	}

	end := c.Env.RunUntil(10 * sim.Millisecond)
	fmt.Printf("\nsimulation finished at t=%.2fus; server stats: %+v\n",
		float64(end)/1000, srv.Stats)

	// Every component registered its counters into the cluster's telemetry
	// registry at build time; dump a small end-of-run summary from it. (A
	// full JSON dump — including sampled series and trace events when
	// enabled — is one `c.Telemetry.JSON()` call away.)
	fmt.Println("\ntelemetry summary:")
	for _, name := range []string{
		"scalerpc.server.served",
		"scalerpc.server.switches",
		"scalerpc.server.warmup_reads",
		"nic0.out.wqes",
		"nic0.qpc.miss",
		"pcie.bus0.rdcur",
		"llc0.dma.alloc",
		"host0.cpu.work_ns",
	} {
		if v, ok := c.Telemetry.Value(name); ok {
			fmt.Printf("  %-28s %.0f\n", name, v)
		}
	}
}

// syncCall is the simplest possible client loop: send one request, poll
// until its response returns.
func syncCall(t *host.Thread, conn rpccore.Conn, sig *sim.Signal, h uint8, payload []byte, reqID uint64) []byte {
	for !conn.TrySend(t, h, payload, reqID) {
		conn.Poll(t, func(rpccore.Response) {})
		sig.WaitTimeout(t.P, 10*sim.Microsecond)
	}
	var resp []byte
	for resp == nil {
		conn.Poll(t, func(r rpccore.Response) {
			if r.ReqID == reqID {
				resp = append([]byte(nil), r.Payload...)
			}
		})
		if resp == nil {
			sig.WaitTimeout(t.P, 10*sim.Microsecond)
		}
	}
	return resp
}
