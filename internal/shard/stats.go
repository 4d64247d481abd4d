package shard

import (
	"scalerpc/internal/stats"
	"scalerpc/internal/telemetry"
)

// Stats counts shard dataplane events. One block is shared per telemetry
// registry (à la rpccore.SharedRel) so routers, nodes and the director on
// one cluster aggregate into a single deterministic dump line each.
type Stats struct {
	// Routed counts requests a router stamped and sent toward a primary.
	Routed uint64
	// Redirects counts wrong-shard responses that bounced a request to the
	// owner the node named.
	Redirects uint64
	// EpochMismatches counts requests a node refused because the stamped
	// epoch differed from its installed map.
	EpochMismatches uint64
	// MapFetches counts shard-map fetches from the director (bootstrap and
	// refresh).
	MapFetches uint64
	// MapPushes counts map installs accepted by nodes from the director.
	MapPushes uint64
	// Failovers counts primary promotions driven by lease expiry.
	Failovers uint64
	// ReplForwards counts synchronous primary→backup forwards.
	ReplForwards uint64
	// ReplFailures counts forwards that exhausted the replication caller's
	// deadline (the primary answers the client with a retryable status).
	ReplFailures uint64
	// DedupHits counts requests answered from a node's applied-token table
	// instead of re-executing (exactly-once across retries and failover).
	DedupHits uint64
	// Coalesced counts hot-key reads that piggybacked on an identical
	// in-flight read instead of going to the wire.
	Coalesced uint64
	// Timeouts counts routed calls the router failed back to the
	// application after exhausting its attempt budget.
	Timeouts uint64

	replLag *stats.Histogram
}

// ObserveReplLag records one primary→backup forward round trip.
func (s *Stats) ObserveReplLag(d int64) {
	if s.replLag != nil {
		s.replLag.Record(d)
	}
}

const auxKey = "shard.stats"

// SharedStats returns the registry's shared shard Stats block, creating
// and registering it under the "shard" scope on first use. A nil registry
// returns a detached block.
func SharedStats(reg *telemetry.Registry) *Stats {
	if reg == nil {
		return &Stats{}
	}
	return reg.Aux(auxKey, func() interface{} {
		s := &Stats{}
		sc := reg.Scope("shard")
		sc.CounterVar("routed", &s.Routed)
		sc.CounterVar("redirects", &s.Redirects)
		sc.CounterVar("epoch_mismatches", &s.EpochMismatches)
		sc.CounterVar("map_fetches", &s.MapFetches)
		sc.CounterVar("map_pushes", &s.MapPushes)
		sc.CounterVar("failovers", &s.Failovers)
		sc.CounterVar("repl_forwards", &s.ReplForwards)
		sc.CounterVar("repl_failures", &s.ReplFailures)
		sc.CounterVar("dedup_hits", &s.DedupHits)
		sc.CounterVar("coalesced", &s.Coalesced)
		sc.CounterVar("timeouts", &s.Timeouts)
		s.replLag = sc.Histogram("repl_lag_ns")
		return s
	}).(*Stats)
}
