// Remote hash table example: the same skewed get/put workload run three
// times against internal/rds — once over the one-sided backend (READ the
// bucket, CAS the version lock, WRITE the slot; zero server CPU), once
// over the RPC backend (one request/response per op, executed by a
// server handler), and once over the adaptive backend, which starts from
// a size-based prior and steers per-op using latency EWMAs, the CAS-retry
// rate, and a bandwidth trip for byte-amplifying ops.
//
// With a hot Zipf key set and a mid-size value, the pure backends land on
// different failure modes (CAS convoys vs server worker queueing) and the
// adaptive run shows where its clients ended up.
//
//	go run ./examples/hashtable
package main

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rds"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

const (
	clients  = 12
	keys     = 256
	valSize  = 256
	theta    = 1.1 // hot Zipf: a handful of keys take most of the traffic
	putFrac  = 0.25
	runFor   = 2 * sim.Millisecond
	thinkMin = 2 // microseconds between ops, jittered per client
)

// runBackend deploys a fresh cluster, drives the closed-loop workload on
// one backend, and reports what happened.
func runBackend(kind rds.Kind) {
	ccfg := cluster.Default(3) // server 0, clients spread over hosts 1-2
	ccfg.Seed = 42
	c := cluster.New(ccfg)
	defer c.Close()

	d := rds.Deploy(c, rds.Config{
		ServerHost: 0,
		Layout:     rds.Layout{Buckets: 256, SlotsPerBucket: 4, ValSize: valSize},
		ServerWork: 2 * sim.Microsecond,
	})
	d.Srv.Prepopulate(keys, 0xcd)

	ops := make([]int, clients)
	var adas []*rds.Adaptive
	for i := 0; i < clients; i++ {
		i := i
		ch := c.Hosts[1+i%2]
		cl := d.NewClient(kind, ch, sim.NewSignal(c.Env))
		if a, ok := cl.(*rds.Adaptive); ok {
			adas = append(adas, a)
		}
		rng := stats.NewRNG(uint64(1000 + i))
		zipf := stats.NewZipf(rng.Split(), keys, theta)
		ch.Spawn(fmt.Sprintf("ht-%s-%d", kind, i), func(t *host.Thread) {
			val := make([]byte, valSize)
			for t.P.Now() < sim.Time(runFor) {
				key := zipf.Next() + 1
				if rng.Float64() < putFrac {
					binary.LittleEndian.PutUint64(val, key)
					if err := cl.Put(t, key, val); err != nil {
						continue
					}
				} else {
					if err := cl.Get(t, key, val); err != nil {
						continue
					}
				}
				ops[i]++
				t.P.Sleep(sim.Duration(thinkMin+rng.Intn(6)) * sim.Microsecond)
			}
		})
	}
	c.Env.RunUntil(sim.Time(runFor) + 200*sim.Microsecond)

	total := 0
	for _, n := range ops {
		total += n
	}
	mops := float64(total) / float64(runFor) * 1e3 // ops/ns -> Mops/s
	fmt.Printf("%-9s %8d ops  %6.3f Mops/s   one-sided=%d rpc=%d cas_retries=%d torn=%d\n",
		kind, total, mops, d.Stats.OneSidedOps, d.Stats.RPCOps,
		d.Stats.CASRetries, d.Stats.TornRetries)
	if len(adas) > 0 {
		prefRPC := 0
		for _, a := range adas {
			if a.PreferredPut() == rds.KindRPC {
				prefRPC++
			}
		}
		fmt.Printf("          adaptive: %d switches, %d probes; %d/%d clients ended preferring RPC for puts\n",
			d.Stats.Switches, d.Stats.Probes, prefRPC, len(adas))
	}
}

func main() {
	fmt.Printf("remote hash table: %d clients, %d keys (Zipf theta %.1f), %dB values, %.0f%% puts, %.0fms window\n\n",
		clients, keys, theta, valSize, putFrac*100, float64(runFor)/1e6)
	for _, kind := range []rds.Kind{rds.KindOneSided, rds.KindRPC, rds.KindAdaptive} {
		runBackend(kind)
	}
}
