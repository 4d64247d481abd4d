// Package rds provides a remote fixed-bucket hash table hosted in one
// server's registered memory and reachable through three interchangeable
// backends:
//
//   - one-sided: clients operate directly on server memory with READ,
//     WRITE and CAS work requests. Buckets carry a seqlock-style version
//     word (even = stable, odd = locked) so torn reads are detected and
//     retried. The server CPU never touches these ops.
//   - rpc: the same operations shipped as ScaleRPC handlers and executed
//     server-side against the same memory layout. One round trip per op,
//     but each op consumes server CPU and a scheduler slot.
//   - adaptive: a per-op hybrid that starts from a payload-size prior and
//     then steers by virtual-time EWMAs of observed latency and CAS-retry
//     rate — falling back from one-sided to RPC under contention and
//     returning under quiescence (Brock et al., "RDMA vs. RPC for
//     Implementing Distributed Data Structures").
//
// All three backends interoperate on the same live table: the RPC
// handlers honor the version words, so a one-sided CAS and a server-side
// handler never corrupt a bucket between them.
package rds

import (
	"errors"

	"scalerpc/internal/host"
	"scalerpc/internal/sim"
)

// Errors returned by data-structure operations.
var (
	ErrNotFound  = errors.New("rds: key not found")
	ErrFull      = errors.New("rds: bucket full")
	ErrContended = errors.New("rds: too many retries")
	ErrRemote    = errors.New("rds: remote/transport error")
)

// Client is one backend endpoint bound to a client host. Values are
// fixed-size (Layout.ValSize); Get copies the value into val and Put
// stores exactly ValSize bytes (shorter inputs are zero-padded).
type Client interface {
	Get(t *host.Thread, key uint64, val []byte) error
	Put(t *host.Thread, key uint64, val []byte) error
}

// Kind names a backend.
type Kind int

// Backends.
const (
	KindOneSided Kind = iota
	KindRPC
	KindAdaptive
)

func (k Kind) String() string {
	switch k {
	case KindOneSided:
		return "onesided"
	case KindRPC:
		return "rpc"
	case KindAdaptive:
		return "adaptive"
	}
	return "?"
}

// Stats aggregates backend-level counters for one deployment. The
// simulator is cooperatively scheduled, so clients update the shared
// struct directly; Deploy registers every field in the cluster's
// telemetry registry under the "rds" scope.
type Stats struct {
	Ops         uint64 // completed data-structure operations
	OneSidedOps uint64 // ops executed on the one-sided path
	RPCOps      uint64 // ops executed on the RPC path
	CASRetries  uint64 // one-sided lock CAS attempts that lost the race
	TornRetries uint64 // one-sided bucket reads discarded (odd version)
	Switches    uint64 // adaptive preferred-backend flips
	Probes      uint64 // adaptive deterministic probes of the non-preferred backend
}

// Default op pacing for one-sided retry backoff.
const (
	backoffBase = 200 * sim.Nanosecond
	backoffCap  = 6 // max left-shift of backoffBase
	maxAttempts = 4096
)

// backoff returns the deterministic retry delay for the given attempt,
// salted by the client id so colliding clients do not stay in lockstep.
func backoff(attempt, clientID int) sim.Duration {
	sh := attempt
	if sh > backoffCap {
		sh = backoffCap
	}
	return backoffBase<<sh + sim.Duration(clientID%7)*23*sim.Nanosecond
}
