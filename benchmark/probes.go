package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"scalerpc/internal/cachesim"
	"scalerpc/internal/cluster"
	"scalerpc/internal/fabric"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpcwire"
	"scalerpc/internal/sim"
)

// Layer probes (source B): the benchmark calls one layer's public functions
// directly in a fixed loop and reports host nanoseconds per call. They cost
// what the layer costs the simulator, with none of the layers above it, so
// a probe that moves while host_ops_per_s does not names the layer that did
// not matter.

// probeRounds is how often each probe loop repeats; the fastest round is
// reported (the least disturbed one).
const probeRounds = 3

// probe times fn, which performs n calls, and returns ns per call.
func probe(n int, fn func()) float64 {
	best := 0.0
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		fn()
		if ns := float64(time.Since(start)) / float64(n); r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func runProbes() map[string]float64 {
	m := map[string]float64{}
	probeSim(m)
	probeNIC(m)
	probeCachesim(m)
	probeFabric(m)
	probeMemory(m)
	probeRPCWire(m)
	probeMica(m)
	return m
}

func probeSim(m map[string]float64) {
	const n = 400_000
	m["probe.sim.callback_ns"] = probe(n, func() {
		e := sim.NewEnv()
		left := n
		var fn func()
		fn = func() {
			if left--; left > 0 {
				e.At(1, fn)
			}
		}
		e.At(1, fn)
		e.Run()
	})
	const wakes = 100_000
	m["probe.sim.proc_wake_ns"] = probe(wakes, func() {
		e := sim.NewEnv()
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < wakes; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
		e.Close()
	})
	// Two processes hand a token back and forth through two signals: each
	// hand-off is one Signal.Wake plus one Signal.Wait.
	m["probe.sim.signal_wake_ns"] = probe(wakes, func() {
		e := sim.NewEnv()
		ping, pong := sim.NewSignal(e), sim.NewSignal(e)
		e.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < wakes/2; i++ {
				ping.Wait(p)
				pong.Wake(1)
			}
		})
		e.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < wakes/2; i++ {
				ping.Wake(1)
				pong.Wait(p)
			}
		})
		e.Run()
		e.Close()
	})
}

// probeNIC drives one RC QP between two hosts: host ns per completed
// 32 B RDMA WRITE, through Thread.PostSend, both NIC engines, PCIe and LLC
// models, the fabric and Thread.PollCQ.
func probeNIC(m map[string]float64) {
	const n = 20_000
	m["probe.nic.write_ns"] = probe(n, func() {
		c := cluster.New(cluster.Default(2))
		defer c.Close()
		a, b := c.Hosts[0], c.Hosts[1]
		src := a.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite)
		dst := b.Mem.Register(4096, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
		acq, bcq := a.NIC.CreateCQ(), b.NIC.CreateCQ()
		qa, _ := c.ConnectRC(a, b, acq, acq, bcq, bcq)
		a.Spawn("writer", func(t *host.Thread) {
			const window = 16
			posted, completed := 0, 0
			for completed < n {
				for posted < n && posted-completed < window {
					if err := t.PostSend(qa, nic.SendWR{
						Op: nic.OpWrite, Signaled: true,
						LKey: src.LKey, LAddr: src.Base, Len: 32,
						RKey: dst.RKey, RAddr: dst.Base,
					}); err != nil {
						panic(fmt.Sprintf("probe.nic: %v", err))
					}
					posted++
				}
				completed += len(t.WaitCQ(acq, window, 5*sim.Microsecond))
			}
		})
		c.Env.Run()
	})
}

// probeCachesim touches the LLC model one line at a time over a working
// set that stays resident and one four times the cache.
func probeCachesim(m map[string]float64) {
	cfg := host.DefaultConfig().LLC
	const n = 1_000_000
	line := uint64(cfg.LineSize)
	for _, ws := range []struct {
		name  string
		bytes uint64
	}{{"resident", uint64(cfg.SizeBytes) / 8}, {"4xllc", uint64(cfg.SizeBytes) * 4}} {
		lines := ws.bytes / line
		llc := cachesim.New(cfg)
		m["probe.cachesim.dma_write_ns_"+ws.name] = probe(n, func() {
			for i := uint64(0); i < n; i++ {
				llc.DMAWrite((i%lines)*line, line)
			}
		})
		llc = cachesim.New(cfg)
		m["probe.cachesim.cpu_read_ns_"+ws.name] = probe(n, func() {
			for i := uint64(0); i < n; i++ {
				llc.CPURead((i%lines)*line, line)
			}
		})
	}
}

func probeFabric(m map[string]float64) {
	const n = 200_000
	m["probe.fabric.send_ns"] = probe(n, func() {
		e := sim.NewEnv()
		f := fabric.New(e, fabric.DefaultConfig(), 2)
		got := 0
		f.Port(1).OnDeliver(func(*fabric.Message) { got++ })
		msg := &fabric.Message{Src: 0, Dst: 1, Bytes: 64}
		for i := 0; i < n; i++ {
			f.Send(msg)
			if i%256 == 255 {
				e.Run()
			}
		}
		e.Run()
		if got != n {
			panic(fmt.Sprintf("probe.fabric: delivered %d of %d", got, n))
		}
	})
}

func probeMemory(m map[string]float64) {
	const n = 2_000_000
	reg := memory.NewRegistry()
	var regions []*memory.Region
	for i := 0; i < 64; i++ {
		regions = append(regions, reg.Register(1<<20, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite))
	}
	m["probe.memory.translate_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			r := regions[i%len(regions)]
			if _, _, err := reg.TranslateRemote(r.RKey, r.Base+uint64(i%4096)*64, 64, true); err != nil {
				panic(fmt.Sprintf("probe.memory: %v", err))
			}
		}
	})
}

func probeRPCWire(m map[string]float64) {
	const n = 200_000
	block := make([]byte, 4096)
	for _, size := range []int{32, 2048} {
		payload := make([]byte, size)
		m[fmt.Sprintf("probe.rpcwire.encode_ns_%d", size)] = probe(n, func() {
			for i := 0; i < n; i++ {
				payload[0] = byte(i)
				if err := rpcwire.Encode(block, payload, 0); err != nil {
					panic(fmt.Sprintf("probe.rpcwire: %v", err))
				}
			}
		})
		m[fmt.Sprintf("probe.rpcwire.decode_ns_%d", size)] = probe(n, func() {
			for i := 0; i < n; i++ {
				if _, _, err := rpcwire.Decode(block); err != nil {
					panic(fmt.Sprintf("probe.rpcwire: %v", err))
				}
			}
		})
	}
}

func probeMica(m map[string]float64) {
	const keys = 1 << 16
	const n = 400_000
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	store := mica.New(c.Hosts[0], mica.Config{Buckets: keys / 2, Items: keys * 2, SlotSize: 128})
	key, val := make([]byte, 10), make([]byte, 8)
	m["probe.mica.put_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(key, uint64(i%keys))
			if _, err := store.Put(nil, key, val); err != nil {
				panic(fmt.Sprintf("probe.mica: %v", err))
			}
		}
	})
	m["probe.mica.get_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(key, uint64(i%keys))
			if _, err := store.Get(nil, key); err != nil {
				panic(fmt.Sprintf("probe.mica: %v", err))
			}
		}
	})
}
