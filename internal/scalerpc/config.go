// Package scalerpc implements ScaleRPC, the paper's contribution: a
// scalable RPC primitive over RC one-sided RDMA writes that multiplexes
// the NIC cache, CPU cache and memory across connections through
//
//   - connection grouping (§3.2): clients are organized into groups served
//     round-robin in time slices, bounding the number of QPs the NIC
//     touches per slice;
//   - virtualized mapping (§3.3): one physical message pool (sized for a
//     single group) is mapped to a different logical pool each slice, so
//     the server's working set stays inside the LLC no matter how many
//     clients connect;
//   - priority-based scheduling (§3.2): group membership and slice length
//     adapt to each client's measured request rate and size;
//   - request warmup (§3.3): while group k is served from the processing
//     pool, group k+1's staged requests are prefetched with RDMA READs
//     into the warmup pool, hiding the context switch from the critical
//     path;
//   - legacy mode (§3.5): call types whose handlers overrun a threshold
//     are recorded and subsequently executed on a dedicated thread so they
//     cannot straddle a context switch.
package scalerpc

import "scalerpc/internal/sim"

// ServerConfig holds every ScaleRPC tunable. Defaults follow the paper's
// evaluation settings (§3.6.1): group size 40, time slice 100 µs, 4 KB
// message blocks.
type ServerConfig struct {
	// Workers is the number of server worker threads (paper: 10).
	Workers int
	// GroupSize is the default connection group size (paper: 40).
	GroupSize int
	// TimeSlice is the default per-group slice (paper: 100 µs).
	TimeSlice sim.Duration
	// BlockSize is the message block size (paper default: 4 KB).
	BlockSize int
	// BlocksPerClient is each client's request window (batching depth).
	BlocksPerClient int
	// MaxClients bounds the endpoint-entry table.
	MaxClients int
	// Dynamic enables the priority-based scheduler; when false the static
	// grouping of the paper's "Static" comparison mode is used (Fig 12).
	Dynamic bool
	// PollTimeout bounds worker sleep while its zones are quiet.
	PollTimeout sim.Duration
	// ParseCost is CPU time to parse/dispatch one request.
	ParseCost sim.Duration
	// WarmupPollInterval is how often, within a slice, the scheduler
	// re-scans endpoint entries of the warming group for late joiners.
	WarmupPollInterval sim.Duration
	// SwitchGuard is the delay between a context switch and the reuse of
	// the old processing pool for warmup fetches, covering in-flight
	// writes from just-notified clients.
	SwitchGuard sim.Duration
	// LegacyThreshold is the handler runtime beyond which a call type is
	// recorded and executed in legacy mode thereafter (§3.5).
	LegacyThreshold sim.Duration
	// SyncPeriod is the global-synchronization exchange interval for
	// multi-server deployments (paper: 100 ms).
	SyncPeriod sim.Duration
	// ReservedZones is the number of pool zones set aside for
	// latency-sensitive clients (the paper's §3.6.2 future-work
	// direction): pinned clients are never context-switched out, trading
	// a little NIC-cache headroom for RC-level tail latency.
	ReservedZones int
	// Failure groups the failure-detection knobs so experiments can sweep
	// them independently of the scheduling parameters.
	Failure FailureConfig
}

// FailureConfig holds ScaleRPC's failure-detection and recovery tunables.
type FailureConfig struct {
	// ProbeSlices is how many consecutive slices a client may go without a
	// single served request before the scheduler posts a liveness probe (a
	// 0-byte RC write) on its QP. A slice stands for one rotation of the
	// clock-driven schedule: when slices end early a group comes round more
	// often, and each of its turns counts for the share of such a rotation
	// that it covered. A dead client's probe exhausts the RC
	// retry budget and errors the QP, which evicts it at its group's next
	// switch; an idle-but-alive client absorbs the probe invisibly.
	// 0 disables probing (dead clients are then only caught when a
	// response or warmup READ happens to fail).
	ProbeSlices int
	// ReconnectBackoff is how long a client waits after finding its QP in
	// the error state before rebuilding the connection.
	ReconnectBackoff sim.Duration
}

// DefaultFailureConfig returns the standard failure-detection parameters.
func DefaultFailureConfig() FailureConfig {
	return FailureConfig{
		ProbeSlices:      1,
		ReconnectBackoff: 20 * sim.Microsecond,
	}
}

// DefaultServerConfig returns the paper's evaluation configuration.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Workers:            10,
		GroupSize:          40,
		TimeSlice:          100 * sim.Microsecond,
		BlockSize:          4096,
		BlocksPerClient:    16,
		MaxClients:         512,
		Dynamic:            true,
		PollTimeout:        20 * sim.Microsecond,
		ParseCost:          60,
		WarmupPollInterval: 20 * sim.Microsecond,
		SwitchGuard:        3 * sim.Microsecond,
		LegacyThreshold:    20 * sim.Microsecond,
		SyncPeriod:         100 * sim.Millisecond,
		ReservedZones:      4,
		Failure:            DefaultFailureConfig(),
	}
}

// maxZones returns the physical pool's rotating-zone capacity: the lazy
// group-size bound of §3.2 allows groups up to 3/2 of the default size.
func (c ServerConfig) maxZones() int {
	return c.GroupSize*3/2 + 1
}

// totalZones adds the reserved (pinned) zones after the rotating ones.
func (c ServerConfig) totalZones() int {
	return c.maxZones() + c.ReservedZones
}

// Stats counts ScaleRPC server events.
type Stats struct {
	Switches     uint64 // context switches performed
	WarmupReads  uint64 // RDMA READs issued to prefetch staged requests
	Notifies     uint64 // explicit context_switch_event writes
	Piggybacked  uint64 // context_switch_events piggybacked on responses
	StaleDrops   uint64 // stale blocks dropped by zone-owner check
	LegacyCalls  uint64 // requests executed in legacy mode
	LegacyMarked uint64 // call types marked legacy
	Regroups     uint64 // group rebuilds (priority or size bounds)
	Served       uint64 // requests answered
	PinnedServed uint64 // requests answered on reserved (latency-sensitive) zones
	LateServed   uint64 // switch-racing requests answered by the late sweep
	Probes       uint64 // liveness probes posted to silent clients
	Demotes      uint64 // clients isolated into suspect groups (gray peer demoted)
	Restores     uint64 // demoted clients re-placed after their peer recovered
	Evictions    uint64 // clients evicted after their QP errored
	Readmits     uint64 // failed clients re-admitted via Reconnect
	Joins        uint64 // control-plane admissions (cold joins and resumes)
	Leaves       uint64 // graceful departures parked in the connection cache
	Expires      uint64 // control-plane clients dropped by lease expiry

	// EarlySwitches counts the context switches (included in Switches) that
	// ended a slice before its budget because the server sat idle on the
	// active group while the next one's requests waited (earlySwitch).
	EarlySwitches uint64
}
