// End-to-end reliability counters shared by every transport on a cluster:
// one RelStats block per telemetry registry, so `rpc.retries`,
// `rpc.dedup_hits` etc. aggregate across servers, callers and baselines in
// a single dump line each.
package rpccore

import "scalerpc/internal/telemetry"

// RelStats counts end-to-end reliability events: client-side retries,
// hedges and deadline expiries, server-side dedup hits, frames discarded
// by the wire CRC on either side, and responses that reached a slot its
// request no longer holds.
type RelStats struct {
	// Retries counts requests re-sent by the Caller after a timeout.
	Retries uint64 `json:"retries"`
	// Hedges counts speculative duplicate sends issued before the deadline.
	Hedges uint64 `json:"hedges"`
	// DedupHits counts requests a server recognized as already executed
	// (or executing) and answered from the reply cache instead of
	// re-running the handler.
	DedupHits uint64 `json:"dedup_hits"`
	// DeadlineExceeded counts calls that exhausted their deadline and
	// retry budget and were failed back to the application.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// CRCDrops counts frames whose trailer CRC failed verification and
	// were treated as loss (cleared, never delivered).
	CRCDrops uint64 `json:"crc_drops"`
	// LateDrops counts responses that arrived for a call the Caller had
	// already failed or completed (a retry racing its original).
	LateDrops uint64 `json:"late_drops"`
	// StaleResponses counts responses a client found in a busy slot's
	// response block carrying another request's id (a previous occupant's
	// late or duplicate answer): discarded, the slot kept busy.
	StaleResponses uint64 `json:"stale_responses"`
}

const relAuxKey = "rpccore.rel"

// SharedRel returns the registry's shared RelStats block, creating and
// registering it on first use — under "rpc" for the call-level counters
// and "wire" for the CRC drops, matching the dump names the determinism
// tests assert. A nil registry returns a detached block.
func SharedRel(reg *telemetry.Registry) *RelStats {
	if reg == nil {
		return &RelStats{}
	}
	return reg.Aux(relAuxKey, func() interface{} {
		rs := &RelStats{}
		rpc := reg.Scope("rpc")
		rpc.CounterVar("retries", &rs.Retries)
		rpc.CounterVar("hedges", &rs.Hedges)
		rpc.CounterVar("dedup_hits", &rs.DedupHits)
		rpc.CounterVar("deadline_exceeded", &rs.DeadlineExceeded)
		rpc.CounterVar("late_drops", &rs.LateDrops)
		rpc.CounterVar("stale_responses", &rs.StaleResponses)
		reg.Scope("wire").CounterVar("crc_drops", &rs.CRCDrops)
		return rs
	}).(*RelStats)
}
