// The online SLO controller: loadgen.SLO promoted from offline judge to a
// control loop. Every Interval of virtual time it closes a sliding window
// over the protected tenant's latency telemetry (histogram delta since the
// previous tick) and walks an escalation ladder against the bulk tenants
// when the window violates, with hysteresis so a single bad or good window
// cannot flap the levers. Everything is driven by the simulation clock and
// the sampled counters, so a run is byte-deterministic per seed.
package tenant

import (
	"fmt"

	"scalerpc/internal/loadgen"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// Sample reads the protected tenant's cumulative telemetry: its latency
// histogram and offered/completed totals. The controller windows the
// cumulative values itself (loadgen.Runner.TenantSample and the chaos
// driver's recorder both fit).
type Sample func() (lat *stats.Histogram, offered, completed uint64)

// ControllerConfig tunes the control loop.
type ControllerConfig struct {
	// Interval is the sampling period (virtual time).
	Interval sim.Duration
	// TripWindows is how many consecutive violating windows escalate one
	// ladder level; ClearWindows is how many consecutive passing windows
	// de-escalate one level. ClearWindows > TripWindows gives downward
	// hysteresis: relief must hold longer than pressure did.
	TripWindows  int
	ClearWindows int
	// MinSamples ignores windows with fewer completions (no evidence
	// either way — streaks are left untouched).
	MinSamples uint64
}

// weightFactor is the level-1 slice-weight multiplier applied to the
// shedding targets.
const weightFactor = 0.25

// DefaultControllerConfig samples every 200µs and needs two bad windows
// to escalate, four good ones to recover.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Interval:     200 * sim.Microsecond,
		TripWindows:  2,
		ClearWindows: 4,
		MinSamples:   16,
	}
}

// maxLevel is the top of the escalation ladder.
const maxLevel = 3

// Action is one ladder move, logged for attribution and testing.
type Action struct {
	At    sim.Time
	Level int // ladder level after the move
	What  string
}

// Controller protects one latency tenant's SLO by shedding the bulk
// tenants. Ladder levels, cumulative:
//
//	0: hands off (declared weights and classes, admissions open)
//	1: shrink the targets' slice weights by weightFactor
//	2: demote the targets to ClassBestEffort
//	3: shed the targets' new admissions (queued or rejected per quota)
//
// Existing connections are never torn down — level 3 stops the bleeding
// at the door while levels 1–2 squeeze the rotation share of what is
// already inside.
type Controller struct {
	M   *Manager
	Cfg ControllerConfig

	protected uint16
	targets   []uint16
	src       Sample
	win       loadgen.SLOWindow

	level      int
	failStreak int
	passStreak int
	stopped    bool

	// Actions is the deterministic log of ladder moves.
	Actions []Action
	// Windows counts evaluated (non-skipped) windows; Violations counts
	// the ones that failed.
	Windows    uint64
	Violations uint64
}

// NewController builds a controller protecting tenant `protected` against
// every registered tenant of ClassBulk or below (by declared class). Call
// after all tenants are registered.
func (m *Manager) NewController(protected uint16, slo loadgen.SLO, src Sample, cfg ControllerConfig) *Controller {
	if cfg.Interval <= 0 {
		cfg = DefaultControllerConfig()
	}
	if cfg.TripWindows <= 0 {
		cfg.TripWindows = 1
	}
	if cfg.ClearWindows <= 0 {
		cfg.ClearWindows = 1
	}
	c := &Controller{
		M:         m,
		Cfg:       cfg,
		protected: protected,
		src:       src,
		win:       loadgen.SLOWindow{SLO: slo},
	}
	for id, st := range m.tenants {
		if uint16(id) != protected && id != 0 && st.spec.Quota.Class >= ClassBulk {
			c.targets = append(c.targets, uint16(id))
		}
	}
	return c
}

// Start arms the control loop on env's virtual clock.
func (c *Controller) Start(env *sim.Env) {
	var tick func()
	tick = func() {
		if c.stopped {
			return
		}
		c.Step(env.Now())
		env.At(c.Cfg.Interval, tick)
	}
	env.At(c.Cfg.Interval, tick)
}

// Stop disarms the loop (the pending callback becomes a no-op).
func (c *Controller) Stop() { c.stopped = true }

// Step evaluates one window and moves the ladder. Exposed so tests and
// custom drivers can clock the controller directly.
func (c *Controller) Step(now sim.Time) {
	lat, offered, completed := c.src()
	pass, _, n := c.win.Advance(lat, offered, completed)
	if n < c.Cfg.MinSamples {
		return
	}
	c.Windows++
	if pass {
		c.failStreak = 0
		c.passStreak++
		if c.passStreak >= c.Cfg.ClearWindows && c.level > 0 {
			c.passStreak = 0
			c.setLevel(now, c.level-1)
		}
		return
	}
	c.Violations++
	c.passStreak = 0
	c.failStreak++
	if c.failStreak >= c.Cfg.TripWindows && c.level < maxLevel {
		c.failStreak = 0
		c.setLevel(now, c.level+1)
	}
}

// Level returns the current ladder level.
func (c *Controller) Level() int { return c.level }

// setLevel applies every lever for the new level to all targets and logs
// the move.
func (c *Controller) setLevel(now sim.Time, level int) {
	c.level = level
	for _, id := range c.targets {
		st := c.M.state(id)
		if level >= 1 {
			c.M.setWeightScale(id, weightFactor)
		} else {
			c.M.setWeightScale(id, 1)
		}
		if level >= 2 {
			c.M.setClass(id, ClassBestEffort)
		} else {
			c.M.setClass(id, st.spec.Quota.Class)
		}
		c.M.setShed(id, level >= 3)
	}
	c.Actions = append(c.Actions, Action{At: now, Level: level, What: levelWhat(level)})
}

func levelWhat(level int) string {
	switch level {
	case 0:
		return "restore declared weights, classes and admissions"
	case 1:
		return "shrink bulk slice weights"
	case 2:
		return "demote bulk tenants to best-effort"
	case 3:
		return "shed new bulk admissions"
	}
	return fmt.Sprintf("level %d", level)
}
