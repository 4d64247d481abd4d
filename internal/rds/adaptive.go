package rds

import (
	"math"

	"scalerpc/internal/host"
	"scalerpc/internal/sim"
)

// The adaptive backend's selection tuning.
const (
	// ewmaWindow is the virtual-time EWMA horizon: a sample's weight decays
	// to 1/e after ewmaWindow of inactivity, so stale observations fade
	// even when an op kind goes quiet.
	ewmaWindow = 200 * sim.Microsecond
	// probeEvery issues every Nth op of a kind on the non-preferred
	// backend, keeping its EWMA warm so the policy can switch back under
	// quiescence.
	probeEvery = 32
	// hysteresis is the fractional latency advantage the non-preferred
	// backend must show before the policy flips, damping oscillation.
	hysteresis = 0.10
	// casTrip is the CAS+torn retry rate (retries per op, EWMA) above
	// which writes trip straight to RPC regardless of latency — the
	// one-sided path is burning round trips losing lock races.
	casTrip = 1.5
	// largeVal is the value size at which the cold-start prior picks RPC:
	// a one-sided get READs the whole bucket (SlotsPerBucket × value), so
	// large values amplify one-sided bytes-per-op well past the RPC
	// response size.
	largeVal = 512
	// nsPerByte prices an op's wire footprint on the shared server link
	// (56 Gbps line rate). The score charges it scaled by the observed
	// queueing ratio (EWMA latency over the latency floor): on an idle
	// link bytes are nearly free and raw latency decides, but once a
	// path's latency inflates over its own floor the link is the
	// bottleneck and the byte-heavy backend loses even when per-op
	// latencies look alike — a latency-greedy policy alone cannot see that
	// a 4 KB bucket READ costs the fleet four 1 KB RPC responses.
	nsPerByte = 1.0 / 7.0
	// bwTripNs and queueTrip form the bandwidth analog of casTrip: an op
	// whose one-sided wire footprint exceeds its RPC footprint by more
	// than bwTripNs (at line rate — i.e. only byte-amplifying large-value
	// ops qualify) trips to RPC while the one-sided latency EWMA sits more
	// than queueTrip× above its observed floor. Per-op latency cannot
	// price the shared-link externality — each client's 4 KB READ queues
	// everyone — so under visible congestion the byte-heavy path yields.
	bwTripNs  = 250
	queueTrip = 3
)

// ewma is a virtual-time exponentially weighted moving average: the blend
// weight of each new sample grows with the gap since the previous one
// (1 - e^(-dt/ewmaWindow)), floored so back-to-back samples still move it.
type ewma struct {
	v    float64
	last sim.Time
	set  bool
}

func (e *ewma) observe(now sim.Time, x float64) {
	if !e.set {
		e.v, e.last, e.set = x, now, true
		return
	}
	a := 1 - math.Exp(-float64(now-e.last)/float64(ewmaWindow))
	if a < 0.05 {
		a = 0.05
	}
	e.v += a * (x - e.v)
	e.last = now
}

// opKind indexes the per-operation adaptive state.
type opKind int

const (
	opGet opKind = iota
	opPut
	opKinds
)

// Adaptive is the hybrid backend: each op goes to the currently preferred
// backend for its kind, steered by virtual-time EWMAs of observed latency
// and of the one-sided retry rate, with deterministic probing of the
// non-preferred backend so the choice can revert under quiescence.
type Adaptive struct {
	d   *Deployment
	one *OneSided
	rpc *RPCClient

	n    [opKinds]uint64 // ops issued per kind (drives the probe cadence)
	pref [opKinds]Kind   // current preferred backend per kind
	lat  [opKinds][2]ewma
	// latMin is the best single latency seen per (kind, backend): the
	// uncontended floor the queueing ratio is measured against.
	latMin [opKinds][2]float64
	// byteNs prices each (kind, backend)'s wire footprint at line rate.
	byteNs [opKinds][2]float64
	// retries tracks one-sided lock-acquisition futility for writes:
	// CAS losses and torn reads per op.
	retries ewma
}

// PreferredPut is the exported view of the put preference for reports.
func (c *Adaptive) PreferredPut() Kind { return c.pref[opPut] }

func newAdaptive(d *Deployment, one *OneSided, rpc *RPCClient) *Adaptive {
	c := &Adaptive{d: d, one: one, rpc: rpc}
	// Cold-start prior: large values amplify one-sided bucket READs, so
	// start them on RPC; small ops start one-sided (fewer server cycles).
	prior := KindOneSided
	if d.Srv.Lay.ValSize >= largeVal {
		prior = KindRPC
	}
	for k := range c.pref {
		c.pref[k] = prior
	}
	// Wire bytes each op moves through the server NIC, per backend. The
	// one-sided figures count the dominant transfers (bucket payloads plus
	// the 16-byte CAS exchange); the RPC figures count request + response.
	lay := d.Srv.Lay
	bkt, val := float64(lay.BucketBytes()), float64(lay.ValSize)
	bytes := [opKinds][2]float64{
		opGet: {KindOneSided: bkt, KindRPC: 8 + 1 + val},
		opPut: {KindOneSided: 2*bkt + 16, KindRPC: 8 + val + 1},
	}
	for k := range bytes {
		for b := range bytes[k] {
			c.byteNs[k][b] = bytes[k][b] * nsPerByte
		}
	}
	return c
}

// score is the comparable cost of a backend for op kind k: the latency
// EWMA plus the op's wire footprint priced at line rate and scaled by the
// observed queueing ratio (see nsPerByte).
func (c *Adaptive) score(k opKind, b Kind) float64 {
	e := &c.lat[k][b]
	if !e.set {
		return math.MaxFloat64
	}
	q := 1.0
	if m := c.latMin[k][b]; m > 0 && e.v > m {
		q = e.v / m
	}
	return e.v + q*c.byteNs[k][b]
}

// choose picks the backend for the next op of kind k.
func (c *Adaptive) choose(k opKind) Kind {
	c.n[k]++
	pick := c.pref[k]
	// Contention trip: writes abandon one-sided while lock races burn
	// round trips. (Gets keep their latency-driven choice — torn reads
	// surface there as inflated latency.)
	if (k == opPut) && pick == KindOneSided && c.retries.set && c.retries.v > casTrip {
		return KindRPC
	}
	// Bandwidth trip: byte-amplifying ops yield the congested link.
	if pick == KindOneSided && c.byteNs[k][KindOneSided]-c.byteNs[k][KindRPC] > bwTripNs {
		if e := &c.lat[k][KindOneSided]; e.set {
			if m := c.latMin[k][KindOneSided]; m > 0 && e.v > queueTrip*m {
				return KindRPC
			}
		}
	}
	if c.n[k]%probeEvery == 0 {
		c.d.Stats.Probes++
		if pick == KindOneSided {
			return KindRPC
		}
		return KindOneSided
	}
	return pick
}

// record folds one op's outcome into the EWMAs and re-evaluates the
// preference with hysteresis.
func (c *Adaptive) record(t *host.Thread, k opKind, used Kind, elapsed sim.Duration, osRetries uint64) {
	now := t.P.Now()
	c.lat[k][used].observe(now, float64(elapsed))
	if m := c.latMin[k][used]; m == 0 || float64(elapsed) < m {
		c.latMin[k][used] = float64(elapsed)
	}
	if used == KindOneSided {
		c.retries.observe(now, float64(osRetries))
	}
	cur, other := c.pref[k], KindOneSided
	if cur == KindOneSided {
		other = KindRPC
	}
	sc, so := c.score(k, cur), c.score(k, other)
	if sc < math.MaxFloat64 && so < sc*(1-hysteresis) {
		c.pref[k] = other
		c.d.Stats.Switches++
	}
}

// probeAttempts bounds one-sided retries during a probe: a probe is an
// experiment, and a contended bucket should cost it a few round trips,
// not a maxAttempts-deep retry storm.
const probeAttempts = 6

// run executes one op on the chosen backend, measuring elapsed virtual
// time and the one-sided retries it cost. A probe onto the one-sided path
// runs with a small retry budget; if it comes back ErrContended the op
// re-runs on the preferred backend so probing never fails user ops.
func (c *Adaptive) run(t *host.Thread, k opKind, fn func(Client) error) error {
	used := c.choose(k)
	offPref := used != c.pref[k]
	var cl Client = c.one
	if used == KindRPC {
		cl = c.rpc
	}
	if used == KindOneSided && offPref {
		c.one.attempts = probeAttempts
	}
	start := t.P.Now()
	r0 := c.d.Stats.CASRetries + c.d.Stats.TornRetries
	err := fn(cl)
	c.one.attempts = 0
	c.record(t, k, used, t.P.Now()-start, c.d.Stats.CASRetries+c.d.Stats.TornRetries-r0)
	if err == ErrContended && offPref && used == KindOneSided {
		start = t.P.Now()
		err = fn(c.rpc)
		c.record(t, k, KindRPC, t.P.Now()-start, 0)
	}
	return err
}

// Get implements Client.
func (c *Adaptive) Get(t *host.Thread, key uint64, val []byte) error {
	return c.run(t, opGet, func(cl Client) error { return cl.Get(t, key, val) })
}

// Put implements Client.
func (c *Adaptive) Put(t *host.Thread, key uint64, val []byte) error {
	return c.run(t, opPut, func(cl Client) error { return cl.Put(t, key, val) })
}
