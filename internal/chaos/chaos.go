// Package chaos runs seeded fault schedules against the RPC transports
// and checks the end-to-end reliability invariants the exactly-once layer
// promises:
//
//  1. At-most-once execution: no request token ever runs its handler more
//     than once, no matter how many retries, hedges or duplicated frames
//     reach the server.
//  2. Acknowledged work executed: every call the client saw complete
//     without error was executed (exactly once, by invariant 1) and its
//     echo matched the request byte for byte.
//  3. Integrity: payload corruption injected past the NIC's ICRC is never
//     delivered — the frame CRC turns it into loss, so zero mismatched
//     echoes reach the application.
//  4. Liveness: with deadlines and retries enabled, every client drains
//     its full call budget before the run's hard stop; nobody wedges.
//
// Everything is derived from one seed: the fault schedule, the cluster
// RNG, and the workload. The same Config therefore produces a
// byte-identical Result, which the tests assert.
package chaos

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// Class selects a fault-schedule family.
type Class string

const (
	// ClassDrop injects uniform message loss, ICRC corruption, past-ICRC
	// payload corruption and duplication on every link.
	ClassDrop Class = "drop"
	// ClassFlap takes host links fully down for short windows, erroring
	// QPs mid-flight and forcing reconnects.
	ClassFlap Class = "flap"
	// ClassCrash kills the server node mid-run and restarts it: clients
	// must retry across the outage and the server must not re-execute
	// work it completed before the crash.
	ClassCrash Class = "crash"
	// ClassChurn connects and disconnects background clients while the
	// measured population runs, forcing regroups under light loss.
	ClassChurn Class = "churn"
)

// Classes lists every schedule family, in the order the matrix runs them.
func Classes() []Class { return []Class{ClassDrop, ClassFlap, ClassCrash, ClassChurn} }

// Config selects one chaos run. Class and Seed are required.
type Config struct {
	Class Class  `json:"class"`
	Seed  uint64 `json:"seed"`
	// Transport is "ScaleRPC" (default) or "RawWrite". RawWrite has no
	// client-side reconnect, so it only supports ClassDrop (recoverable
	// loss that never errors a QP).
	Transport string `json:"transport,omitempty"`
}

// MatrixSeeds are the per-class seeds of the acceptance matrix (4 classes
// × 8 seeds) that TestChaosMatrix and scalebench chaos both run. Kept
// literal so a failing run's schedule can be regenerated exactly from its
// class and seed.
var MatrixSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 34}

const (
	matrixClients = 8  // measured clients per run
	matrixCalls   = 60 // per client
	// budget is the hard stop of the echo harnesses: every client must
	// finish its calls by then or it is reported stuck.
	budget = 40 * sim.Millisecond
)

// Injected mirrors the fault plane's counters into the result artifact.
type Injected struct {
	Drops           uint64 `json:"drops"`
	Corrupts        uint64 `json:"corrupts"`
	PayloadCorrupts uint64 `json:"payload_corrupts"`
	Dups            uint64 `json:"dups"`
	LinkDownDrops   uint64 `json:"link_down_drops"`
	Flaps           uint64 `json:"flaps"`
	Crashes         uint64 `json:"crashes"`
}

// Result is one run's outcome: workload totals, reliability counters, the
// generated schedule, and the list of invariant violations (empty on a
// healthy run). Same Config ⇒ byte-identical JSON.
type Result struct {
	Class     string           `json:"class"`
	Seed      uint64           `json:"seed"`
	Transport string           `json:"transport"`
	Clients   int              `json:"clients"`
	Calls     int              `json:"calls"`
	Scenario  *faults.Scenario `json:"scenario"`

	// Issued is the total call budget (Clients × Calls); a stuck client
	// may resolve fewer.
	Issued   uint64 `json:"issued"`
	Acked    uint64 `json:"acked"`
	TimedOut uint64 `json:"timed_out"`
	Errors   uint64 `json:"errors"`
	// Executions counts handler runs for distinct tokens; duplicates are
	// broken out so the at-most-once verdict is visible at a glance.
	Executions          uint64 `json:"executions"`
	DuplicateExecutions uint64 `json:"duplicate_executions"`
	// EchoMismatches counts corrupted payloads delivered to the
	// application — the integrity invariant demands zero.
	EchoMismatches uint64 `json:"echo_mismatches"`
	StuckClients   int    `json:"stuck_clients"`

	Retries          uint64 `json:"retries"`
	Hedges           uint64 `json:"hedges"`
	DedupHits        uint64 `json:"dedup_hits"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	LateDrops        uint64 `json:"late_drops"`
	CRCDrops         uint64 `json:"crc_drops"`

	Injected   Injected `json:"injected"`
	Violations []string `json:"violations,omitempty"`
	ElapsedNs  int64    `json:"elapsed_ns"`
}

// Pass reports whether every invariant held.
func (r *Result) Pass() bool { return len(r.Violations) == 0 }

// payloadLen sizes every chaos request: an 8-byte token plus filler whose
// bytes are a deterministic function of the token, so a flipped bit
// anywhere in the payload is detectable at either end.
const payloadLen = 32

func fillPayload(buf []byte, tok uint64) {
	binary.LittleEndian.PutUint64(buf, tok)
	for j := 8; j < len(buf); j++ {
		buf[j] = byte(tok>>(8*(j%8))) ^ byte(j)
	}
}

func token(client, seq int) uint64 { return uint64(client)<<32 | uint64(seq) }

// callOpts returns the per-class deadline/retry policy. Timeouts sit well
// above the healthy round trip but inside the fault windows, so outages
// convert to retries and (eventually) TimedOut failures, never hangs.
func callOpts(class Class) rpccore.CallOpts {
	o := rpccore.CallOpts{
		Timeout:       600 * sim.Microsecond,
		RetryInterval: 120 * sim.Microsecond,
		MaxRetries:    3,
	}
	if class == ClassDrop {
		// Hedging only pays against stochastic straggler loss; under
		// flaps/crashes it just doubles pressure on a dead link.
		o.Hedge = 250 * sim.Microsecond
	}
	return o
}

// Run executes one seeded chaos schedule and returns its Result.
func Run(cfg Config) (*Result, error) {
	if cfg.Transport == "" {
		cfg.Transport = "ScaleRPC"
	}
	if cfg.Transport == "RawWrite" && cfg.Class != ClassDrop {
		return nil, fmt.Errorf("chaos: RawWrite has no reconnect path; class %q unsupported", cfg.Class)
	}
	if cfg.Transport != "ScaleRPC" && cfg.Transport != "RawWrite" {
		return nil, fmt.Errorf("chaos: unknown transport %q", cfg.Transport)
	}
	scen, err := GenScenario(cfg.Class, cfg.Seed)
	if err != nil {
		return nil, err
	}

	r := newRun(3, cfg.Seed, budget) // server + two client hosts
	defer r.c.Close()
	p := r.c.InstallFaults(scen)

	// Both transports share the cluster-wide reliability block; the
	// servers and Callers below register against the same registry.
	rel := rpccore.SharedRel(r.c.Telemetry)
	ex := execs{}
	var connect func(ch *host.Host, sig *sim.Signal) rpccore.Conn
	if cfg.Transport == "ScaleRPC" {
		s := r.echoServer(ex, nil)
		connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
		if cfg.Class == ClassChurn {
			startChurn(r.c, s, cfg.Seed)
		}
	} else {
		rcfg := rawrpc.DefaultServerConfig()
		rcfg.Workers = 4
		rcfg.BlocksPerClient = 8
		rcfg.MaxClients = 64
		s := rawrpc.NewServer(r.c.Hosts[0], rcfg)
		s.Register(1, ex.echo)
		s.Start()
		connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
	}

	opts := callOpts(cfg.Class)
	runs := make([]*clientRun, matrixClients)
	for i := range runs {
		cr := &clientRun{}
		runs[i] = cr
		ch := r.c.Hosts[1+i%2]
		sig := sim.NewSignal(r.c.Env)
		conn := rpccore.NewCaller(connect(ch, sig), opts, rel)
		ch.Spawn("chaos-client", func(th *host.Thread) {
			driveClient(th, conn, sig, i, matrixCalls, 0, r.hardStop, cr, nil)
		})
	}
	r.drive(100*sim.Microsecond, 0, func() bool { return allDone(runs) })
	r.settle()
	return assemble(r, cfg, matrixClients, matrixCalls, scen, p, rel, runs, ex), nil
}

// driveClient issues calls sequentially: send token (i, s), poll until the
// Caller resolves it (response or synthetic timeout), verify the echo.
// pace, when > 0, inserts that much think time before every call after the
// first, stretching the client's budget across a fault window instead of
// draining it in one burst. rec, when non-nil, collects the windowed
// telemetry (offered at issue, latency and completion at successful
// resolution) the SLO controller samples in the tenant-shed variant.
func driveClient(th *host.Thread, conn *rpccore.Caller, sig *sim.Signal, idx, calls int, pace sim.Duration, hardStop sim.Time, cr *clientRun, rec *latRecorder) {
	payload := make([]byte, payloadLen)
	expect := make([]byte, payloadLen)
	for s := 0; s < calls; s++ {
		if pace > 0 && s > 0 {
			th.P.Sleep(pace)
			if th.P.Now() >= hardStop {
				return
			}
		}
		tok := token(idx, s)
		fillPayload(payload, tok)
		reqID := uint64(s)
		for !conn.TrySend(th, 1, payload, reqID) {
			conn.Poll(th, func(rpccore.Response) {})
			if th.P.Now() >= hardStop {
				return
			}
			th.WaitSignal(sig, 10*sim.Microsecond)
		}
		start := th.P.Now()
		if rec != nil {
			rec.offered++
		}
		resolved := false
		for !resolved {
			conn.Poll(th, func(r rpccore.Response) {
				if r.ReqID != reqID || resolved {
					return
				}
				resolved = true
				switch {
				case r.TimedOut:
					cr.timedOut++
				case r.Err:
					cr.errs++
				default:
					fillPayload(expect, tok)
					if string(r.Payload) != string(expect) {
						cr.mismatch++
					} else {
						cr.acked = append(cr.acked, tok)
						if rec != nil {
							rec.completed++
							rec.hist.Record(int64(th.P.Now() - start))
						}
					}
				}
			})
			if resolved {
				break
			}
			if th.P.Now() >= hardStop {
				return
			}
			th.WaitSignal(sig, 10*sim.Microsecond)
		}
	}
	cr.done = true
}

// assemble computes the invariant verdicts from the raw run state.
func assemble(r *run, cfg Config, clients, calls int, scen *faults.Scenario, p *faults.Plane,
	rel *rpccore.RelStats, runs []*clientRun, ex execs) *Result {
	res := &Result{
		Class: string(cfg.Class), Seed: cfg.Seed, Transport: cfg.Transport,
		Clients: clients, Calls: calls, Scenario: scen, Issued: uint64(clients * calls),
		Retries: rel.Retries, Hedges: rel.Hedges, DedupHits: rel.DedupHits,
		DeadlineExceeded: rel.DeadlineExceeded, LateDrops: rel.LateDrops,
		CRCDrops: rel.CRCDrops,
		Injected: Injected{
			Drops: p.Stats.Drops, Corrupts: p.Stats.Corrupts,
			PayloadCorrupts: p.Stats.PayloadCorrupts, Dups: p.Stats.Dups,
			LinkDownDrops: p.Stats.LinkDownDrops, Flaps: p.Stats.Flaps,
			Crashes: p.Stats.Crashes,
		},
		ElapsedNs: int64(r.c.Env.Now()),
	}
	res.Executions = uint64(len(ex))
	res.DuplicateExecutions = ex.atMostOnce(r)
	for _, cr := range runs {
		res.Acked += uint64(len(cr.acked))
		res.TimedOut += cr.timedOut
		res.Errors += cr.errs
		res.EchoMismatches += cr.mismatch
	}
	res.StuckClients = r.checkClients("client", runs, ex)
	// Invariant 3: integrity — zero delivered corruption.
	if res.EchoMismatches > 0 {
		r.violate("%d corrupted payloads delivered (CRC must turn corruption into loss)", res.EchoMismatches)
	}
	res.Violations = r.violations
	return res
}
