package scalerpc

import (
	"encoding/binary"
	"testing"

	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// TestServerCrashRestartExactlyOnce crashes the server node mid-run and
// restarts it while deadline-driven clients keep retrying across the
// outage. The retries necessarily deliver duplicate frames — some for
// requests the server executed just before (or during) the blackout — and
// the reply cache must absorb every one: no acknowledged request may run
// its handler twice, and everything acknowledged must have run.
func TestServerCrashRestartExactlyOnce(t *testing.T) {
	c, s := buildServer(2, nil)
	defer c.Close()
	execs := make(map[uint64]int)
	s.Register(2, func(th *host.Thread, clientID uint16, req []byte, out []byte) int {
		th.Work(100)
		execs[binary.LittleEndian.Uint64(req)]++
		return copy(out, req)
	})
	// Forgiving NIC retry budget (12 × 20 µs escalating) so RC rides out
	// the 150 µs blackout without erroring QPs; the crash still stalls
	// in-flight calls long enough that the Caller's 120 µs retry clock
	// fires.
	p := c.InstallFaults(&faults.Scenario{
		Name:    "crash-restart",
		Crashes: []faults.Crash{{Node: 0, At: int64(300 * sim.Microsecond), RestartAfterNs: int64(150 * sim.Microsecond)}},
		NIC:     faults.NICTuning{RetransmitTimeoutNs: 20_000, RetryCount: 12},
	})
	rel := rpccore.SharedRel(c.Telemetry)

	const clients, calls = 4, 400
	acked := make([][]uint64, clients)
	done := make([]bool, clients)
	opts := rpccore.CallOpts{Timeout: 600 * sim.Microsecond, RetryInterval: 120 * sim.Microsecond, MaxRetries: 3}
	hardStop := sim.Time(30 * sim.Millisecond)
	for i := 0; i < clients; i++ {
		i := i
		sig := sim.NewSignal(c.Env)
		conn := rpccore.NewCaller(s.Connect(c.Hosts[1], sig), opts, rel)
		c.Hosts[1].Spawn("eo-client", func(th *host.Thread) {
			payload := make([]byte, 24)
			for seq := 0; seq < calls; seq++ {
				tok := uint64(i)<<32 | uint64(seq)
				binary.LittleEndian.PutUint64(payload, tok)
				reqID := uint64(seq)
				for !conn.TrySend(th, 2, payload, reqID) {
					conn.Poll(th, func(rpccore.Response) {})
					if th.P.Now() >= hardStop {
						return
					}
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
				resolved := false
				for !resolved {
					conn.Poll(th, func(r rpccore.Response) {
						if r.ReqID != reqID || resolved {
							return
						}
						resolved = true
						if !r.Err && !r.TimedOut {
							acked[i] = append(acked[i], tok)
						}
					})
					if resolved {
						break
					}
					if th.P.Now() >= hardStop {
						return
					}
					sig.WaitTimeout(th.P, 10*sim.Microsecond)
				}
			}
			done[i] = true
		})
	}
	c.Env.RunUntil(hardStop + sim.Time(sim.Millisecond))

	var totalAcked int
	for i := range acked {
		if !done[i] {
			t.Errorf("client %d wedged across the crash (%d/%d calls resolved)", i, len(acked[i]), calls)
		}
		totalAcked += len(acked[i])
		for _, tok := range acked[i] {
			if execs[tok] == 0 {
				t.Errorf("token %x acked but never executed", tok)
			}
		}
	}
	for tok, n := range execs {
		if n > 1 {
			t.Errorf("token %x executed %d times, want exactly once", tok, n)
		}
	}
	if totalAcked == 0 {
		t.Fatal("nothing acknowledged — the run proves nothing")
	}
	if p.Stats.Crashes != 1 || p.Stats.LinkDownDrops == 0 {
		t.Fatalf("crash never bit: %+v", p.Stats)
	}
	if rel.Retries == 0 {
		t.Fatal("no retries across a 150µs server blackout — duplicates untested")
	}
}
