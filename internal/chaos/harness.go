package chaos

import (
	"encoding/binary"
	"fmt"
	"slices"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// maxViolations caps a run's violation list; the counters stay exact.
const maxViolations = 16

// run is what every harness shares: the seeded cluster, the hard stop
// every client must finish by, and the violations the checkers found.
type run struct {
	c          *cluster.Cluster
	hardStop   sim.Time
	violations []string
}

// newRun builds a cluster of n hosts seeded seed+1 (nonzero even for seed
// 0), with the hard stop budget away. The caller closes r.c.
func newRun(n int, seed uint64, budget sim.Duration) *run {
	ccfg := cluster.Default(n)
	ccfg.Seed = seed + 1
	c := cluster.New(ccfg)
	return &run{c: c, hardStop: c.Env.Now() + budget}
}

func (r *run) violate(format string, args ...interface{}) {
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// drive runs the simulation in tick steps until done or the hard stop,
// and then on to hold if that is still ahead.
func (r *run) drive(tick sim.Duration, hold sim.Time, done func() bool) {
	env := r.c.Env
	for !done() && env.Now() < r.hardStop {
		env.RunUntil(env.Now() + tick)
	}
	if env.Now() < hold {
		env.RunUntil(hold)
	}
}

// settle lets in-flight completions and late responses land, so the
// counters and ledgers read afterwards are final.
func (r *run) settle() { r.c.Env.RunUntil(r.c.Env.Now() + sim.Millisecond) }

// echoServer starts the ScaleRPC echo server on host 0 that the echo
// harnesses share: 4 workers, groups of 8, 50 µs slices, handler 1
// recording into ex. setup, when non-nil, installs hooks (a tenant
// authority, a control plane) before the server starts.
func (r *run) echoServer(ex execs, setup func(*scalerpc.Server)) *scalerpc.Server {
	scfg := scalerpc.DefaultServerConfig()
	scfg.Workers = 4
	scfg.GroupSize = 8
	scfg.TimeSlice = 50 * sim.Microsecond
	scfg.BlocksPerClient = 8
	scfg.MaxClients = 256
	s := scalerpc.NewServer(r.c.Hosts[0], scfg)
	s.Register(1, ex.echo)
	if setup != nil {
		setup(s)
	}
	s.Start()
	return s
}

// execs is the execution ledger: handler runs per request token.
type execs map[uint64]uint32

// echo is the echo harnesses' handler: fixed work, one ledger entry for
// the request's token, and the request echoed back.
func (ex execs) echo(t *host.Thread, _ uint16, req, out []byte) int {
	t.Work(100)
	if len(req) >= 8 {
		ex[binary.LittleEndian.Uint64(req)]++
	}
	return copy(out, req)
}

// atMostOnce reports, in token order, every token that ran more than once
// (invariant 1), and returns the runs beyond each token's first.
func (ex execs) atMostOnce(r *run) (extra uint64) {
	toks := make([]uint64, 0, len(ex))
	for tok := range ex {
		toks = append(toks, tok)
	}
	slices.Sort(toks)
	for _, tok := range toks {
		if n := ex[tok]; n > 1 {
			extra += uint64(n - 1)
			r.violate("token (client %d, seq %d) executed %d times", tok>>32, tok&0xffffffff, n)
		}
	}
	return extra
}

// clientRun tracks one client's progress.
type clientRun struct {
	acked    []uint64 // tokens acknowledged without error, in completion order
	timedOut uint64
	errs     uint64 // transport-level errors (not timeouts, not mismatches)
	mismatch uint64
	done     bool
}

func allDone(runs []*clientRun) bool {
	for _, cr := range runs {
		if !cr.done {
			return false
		}
	}
	return true
}

// checkAcked reports every token cr saw acknowledged that none of the
// ledgers recorded as executed (invariant 2).
func (r *run) checkAcked(who string, i int, cr *clientRun, ledgers ...execs) {
	for _, tok := range cr.acked {
		ran := false
		for _, ex := range ledgers {
			ran = ran || ex[tok] > 0
		}
		if !ran {
			r.violate("%s %d: token (client %d, seq %d) acked but never executed", who, i, tok>>32, tok&0xffffffff)
		}
	}
}

// checkClients holds every client to acked ⇒ executed and to liveness
// (invariant 4: done before the hard stop), and returns how many are stuck.
func (r *run) checkClients(who string, runs []*clientRun, ledgers ...execs) (stuck int) {
	for i, cr := range runs {
		r.checkAcked(who, i, cr, ledgers...)
		if !cr.done {
			stuck++
			r.violate("%s %d stuck within the budget", who, i)
		}
	}
	return stuck
}
