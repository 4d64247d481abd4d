package chaos

import (
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// Per-class RNG salts keep the four schedule generators statistically
// independent even when the matrix reuses the same seed across classes.
// A class missing from the table has no generator and is rejected.
var salts = map[Class]uint64{
	ClassDrop:  0x9e3779b97f4a7c15,
	ClassFlap:  0xbf58476d1ce4e5b9,
	ClassCrash: 0x94d049bb133111eb,
	ClassChurn: 0xd6e8feb86659fd93,
}

func us(n int) int64 { return int64(n) * int64(sim.Microsecond) }

// GenScenario derives a fault schedule for the class from the seed alone:
// rates, windows and restart delays are all drawn from one seeded RNG, and
// the scenario pins its own plane seed so injection decisions replay
// bit-for-bit.
func GenScenario(class Class, seed uint64) (*faults.Scenario, error) {
	salt, ok := salts[class]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown class %q", class)
	}
	rng := stats.NewRNG(seed ^ salt)
	sc := &faults.Scenario{
		Name: fmt.Sprintf("chaos-%s-%d", class, seed),
		Seed: rng.Uint64() | 1, // pin the plane RNG (nonzero)
	}
	// Every class carries past-ICRC payload corruption so the integrity
	// invariant (zero delivered corruption) is exercised across the whole
	// matrix, not just the drop runs.
	payloadCorrupt := 0.002 + 0.006*rng.Float64()

	switch class {
	case ClassDrop:
		sc.Links = []faults.LinkFault{{
			Src: -1, Dst: -1,
			DropRate:           0.002 + 0.018*rng.Float64(),
			CorruptRate:        0.004 * rng.Float64(),
			PayloadCorruptRate: payloadCorrupt,
			DupRate:            0.004 * rng.Float64(),
		}}
		// The forgiving 20 µs default retransmit timer recovers drops
		// without erroring QPs; raise the retry budget for unlucky runs.
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 20_000, RetryCount: 7}

	case ClassFlap:
		n := 2 + rng.Intn(3)
		for k := 0; k < n; k++ {
			sc.Flaps = append(sc.Flaps, faults.Flap{
				// Flap any of the three nodes; windows are spread out so
				// recovery from one completes before the next begins.
				Node:   rng.Intn(3),
				At:     us(300+900*k) + us(rng.Intn(400)),
				DownNs: us(40 + rng.Intn(80)),
			})
		}
		sc.Links = []faults.LinkFault{{Src: -1, Dst: -1, PayloadCorruptRate: payloadCorrupt}}
		// Fast failure detection: QPs sending into a downed link error
		// quickly, so clients reconnect instead of stalling.
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 5_000, RetryCount: 3}

	case ClassCrash:
		at := us(400 + rng.Intn(400))
		restart := us(150 + rng.Intn(250))
		sc.Crashes = []faults.Crash{{Node: 0, At: at, RestartAfterNs: restart}}
		if rng.Float64() < 0.5 {
			// A second outage after full recovery, same node.
			at2 := at + restart + us(800+rng.Intn(600))
			sc.Crashes = append(sc.Crashes, faults.Crash{
				Node: 0, At: at2, RestartAfterNs: us(150 + rng.Intn(250)),
			})
		}
		sc.Links = []faults.LinkFault{{
			Src: -1, Dst: -1,
			DropRate:           0.002 * rng.Float64(),
			PayloadCorruptRate: payloadCorrupt,
		}}
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 5_000, RetryCount: 3}

	case ClassChurn:
		sc.Links = []faults.LinkFault{{
			Src: -1, Dst: -1,
			DropRate:           0.003 + 0.005*rng.Float64(),
			PayloadCorruptRate: payloadCorrupt,
		}}
		sc.NIC = faults.NICTuning{RetransmitTimeoutNs: 20_000, RetryCount: 7}
	}
	return sc, sc.Validate()
}

// startChurn connects a fodder population ahead of the measured clients
// and then churns it from a seeded background process: disconnects and
// fresh connects force regroups while the measured ids stay untouched.
func startChurn(c *cluster.Cluster, s *scalerpc.Server, seed uint64) {
	sig := sim.NewSignal(c.Env)
	const fodder = 16
	for i := 0; i < fodder; i++ {
		s.Connect(c.Hosts[1+i%2], sig)
	}
	rng := stats.NewRNG(seed ^ salts[ClassChurn] ^ 0xa5a5a5a5)
	c.Env.Spawn("chaos-churn", func(pr *sim.Proc) {
		for k := 0; k < 24; k++ {
			// Double-disconnects are no-ops, so random targets are fine.
			s.Disconnect(uint16(rng.Intn(fodder)))
			if k%2 == 0 {
				s.Connect(c.Hosts[1+k%2], sig)
			}
			pr.Sleep(sim.Duration(60+rng.Intn(60)) * sim.Microsecond)
		}
	})
}
