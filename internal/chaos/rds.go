// The rds chaos variant: drop and duplication faults run against the
// one-sided path of internal/rds's remote MPMC queue. Producers claim
// tail tickets with FetchAdd and consumers claim head tickets the same
// way, so the fault plane attacks exactly the operations that are NOT
// idempotent: a retransmitted FetchAdd that re-executed would hand two
// producers the same slot (an element lost to overwrite) or hand one
// consumer two tickets (an element double-applied). The NIC's atomic
// replay cache is what makes the protocol hold — duplicates are answered
// from the cache, never re-executed — and the run asserts it fired.
//
// Invariants per seeded run:
//
//  1. No lost elements: every token a producer enqueued is dequeued by
//     exactly one consumer.
//  2. No double-applied elements: no token is dequeued twice, and no
//     dequeue returns bytes matching no enqueued token.
//  3. Liveness: every producer and consumer drains its budget before the
//     hard stop, despite drops stalling individual verbs on the
//     retransmit timer.
//
// One seed derives the fault rates, the cluster RNG and the workload
// pacing, so the same seed produces a byte-identical RDSResult.
package chaos

import (
	"encoding/binary"
	"fmt"
	"slices"

	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rds"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// saltRDS keeps the rds schedule generator independent of the other
// chaos classes when the matrix reuses seeds.
const saltRDS = 0xa0761d6478bd642f

// An rds run has rdsProducers producers each enqueue rdsElems unique
// tokens, and rdsConsumers consumers split the total dequeue quota evenly,
// to a hard stop rdsBudget away.
const (
	rdsProducers = 4
	rdsElems     = 30
	rdsConsumers = 4
	rdsBudget    = 80 * sim.Millisecond
)

// RDSResult is one run's outcome. Same seed ⇒ byte-identical JSON.
type RDSResult struct {
	Seed      uint64  `json:"seed"`
	Producers int     `json:"producers"`
	Elems     int     `json:"elems"`
	Consumers int     `json:"consumers"`
	DropRate  float64 `json:"drop_rate"`
	DupRate   float64 `json:"dup_rate"`

	Enqueued uint64 `json:"enqueued"`
	Dequeued uint64 `json:"dequeued"`

	// Server-NIC responder counters: every ticket claim is an AtomicOp;
	// AtomicReplays counts duplicated claims absorbed by the replay cache.
	AtomicOps     uint64 `json:"atomic_ops"`
	AtomicReplays uint64 `json:"atomic_replays"`
	QueueSpins    uint64 `json:"queue_spins"`
	Retransmits   uint64 `json:"retransmits"`

	StuckClients int      `json:"stuck_clients"`
	Violations   []string `json:"violations,omitempty"`
	ElapsedNs    int64    `json:"elapsed_ns"`
}

// Pass reports whether every invariant held.
func (r *RDSResult) Pass() bool { return len(r.Violations) == 0 }

// rdsToken encodes producer p's k-th element: unique across the run and
// self-describing, so the multiset check can name what went missing.
func rdsToken(p, k int) uint64 { return uint64(p+1)<<32 | uint64(k+1) }

// RunRDS executes one seeded drop+dup schedule against the one-sided
// remote queue.
func RunRDS(seed uint64) (*RDSResult, error) {
	const total = rdsProducers * rdsElems
	rng := stats.NewRNG(seed ^ saltRDS)
	// Duplication is the star of this schedule (it is what exercises the
	// atomic replay cache), with a drop rate on top so retransmitted —
	// not just duplicated — atomics are in play too. No payload
	// corruption: the one-sided path carries no app-level checksum, and
	// past-ICRC mangling is the transport matrix's concern.
	dropRate := 0.002 + 0.010*rng.Float64()
	dupRate := 0.030 + 0.030*rng.Float64()

	// Topology: server 0, producer host 1, consumer host 2.
	r := newRun(3, seed, rdsBudget)
	defer r.c.Close()
	c := r.c

	d := rds.Deploy(c, rds.Config{
		ServerHost: 0,
		// A ring smaller than the total element count, so slot reuse (and
		// the lap protocol's commit words) is part of every run.
		Layout: rds.Layout{Buckets: 16, SlotsPerBucket: 4, ValSize: 16, QueueCap: 32},
	})

	c.InstallFaults(&faults.Scenario{
		Name: fmt.Sprintf("chaos-rds-%d", seed),
		Seed: rng.Uint64() | 1,
		Links: []faults.LinkFault{{
			Src: -1, Dst: -1,
			DropRate: dropRate,
			DupRate:  dupRate,
		}},
		// The forgiving retransmit timer recovers drops without erroring
		// QPs; raise the retry budget for unlucky runs.
		NIC: faults.NICTuning{RetransmitTimeoutNs: 20_000, RetryCount: 7},
	})

	prods := make([]*clientRun, rdsProducers)
	for p := range prods {
		cr := &clientRun{}
		prods[p] = cr
		prng := stats.NewRNG(seed ^ saltRDS ^ uint64(0x1000+p))
		cl := d.NewOneSided(c.Hosts[1])
		c.Hosts[1].Spawn(fmt.Sprintf("rds-chaos-prod%d", p), func(th *host.Thread) {
			buf := make([]byte, 8)
			for k := 0; k < rdsElems; k++ {
				if th.P.Now() >= r.hardStop {
					return
				}
				binary.LittleEndian.PutUint64(buf, rdsToken(p, k))
				if err := cl.Enqueue(th, buf); err != nil {
					// Enqueue blocks on a full ring and the NIC retries
					// drops, so any surfaced error is an invariant
					// violation reported by the multiset check.
					return
				}
				// Jittered pacing interleaves producers' ticket claims.
				th.P.Sleep(sim.Duration(5+prng.Intn(40)) * sim.Microsecond)
			}
			cr.done = true
		})
	}

	// Fixed quotas: each consumer dequeues exactly its share of the total,
	// so no consumer claims a head ticket that no producer will ever fill.
	cons := make([]*clientRun, rdsConsumers)
	got := make([]map[uint64]int, rdsConsumers)
	for q := range cons {
		cr := &clientRun{}
		cons[q] = cr
		quota := total / rdsConsumers
		if q < total%rdsConsumers {
			quota++
		}
		crng := stats.NewRNG(seed ^ saltRDS ^ uint64(0x2000+q))
		cl := d.NewOneSided(c.Hosts[2])
		got[q] = make(map[uint64]int)
		c.Hosts[2].Spawn(fmt.Sprintf("rds-chaos-cons%d", q), func(th *host.Thread) {
			buf := make([]byte, 16)
			for k := 0; k < quota; k++ {
				if th.P.Now() >= r.hardStop {
					return
				}
				n, err := cl.Dequeue(th, buf)
				if err != nil {
					return
				}
				if n != 8 {
					got[q][^uint64(0)]++ // malformed element; fails integrity
					continue
				}
				got[q][binary.LittleEndian.Uint64(buf)]++
				th.P.Sleep(sim.Duration(5+crng.Intn(40)) * sim.Microsecond)
			}
			cr.done = true
		})
	}

	r.drive(200*sim.Microsecond, 0, func() bool { return allDone(prods) && allDone(cons) })
	// Let trailing completions (slot frees, retransmits in flight) settle.
	r.settle()

	srvNIC := c.Hosts[0].NIC
	res := &RDSResult{
		Seed: seed, Producers: rdsProducers, Elems: rdsElems,
		Consumers: rdsConsumers, DropRate: dropRate, DupRate: dupRate,
		QueueSpins:    d.Stats.QueueSpins,
		AtomicOps:     srvNIC.Stats.AtomicOps,
		AtomicReplays: srvNIC.Stats.AtomicReplays,
		Retransmits:   c.Hosts[1].NIC.Stats.QPRetransmits + c.Hosts[2].NIC.Stats.QPRetransmits,
		ElapsedNs:     int64(c.Env.Now()),
	}
	// Invariant 3: liveness.
	res.StuckClients = r.checkClients("producer", prods) + r.checkClients("consumer", cons)

	// Invariants 1 and 2: exact multiset equality between the enqueued and
	// dequeued token sets.
	counts := make(map[uint64]int)
	for _, m := range got {
		for tok, n := range m {
			counts[tok] += n
			res.Dequeued += uint64(n)
		}
	}
	res.Enqueued = total
	expected := make([]uint64, 0, total)
	for p := 0; p < rdsProducers; p++ {
		for k := 0; k < rdsElems; k++ {
			expected = append(expected, rdsToken(p, k))
		}
	}
	slices.Sort(expected)
	for _, tok := range expected {
		switch counts[tok] {
		case 1:
		case 0:
			r.violate("token %#x enqueued but never dequeued (lost element)", tok)
		default:
			r.violate("token %#x dequeued %d times (double-applied)", tok, counts[tok])
		}
		delete(counts, tok)
	}
	// Anything left was delivered but never enqueued.
	strays := make([]uint64, 0, len(counts))
	for tok := range counts {
		strays = append(strays, tok)
	}
	slices.Sort(strays)
	for _, tok := range strays {
		r.violate("token %#x dequeued %d times but never enqueued", tok, counts[tok])
	}
	res.Violations = r.violations
	return res, nil
}
