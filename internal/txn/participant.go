package txn

import (
	"errors"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
)

// ParticipantStats counts participant-side events.
type ParticipantStats struct {
	Execs         uint64
	LockConflicts uint64
	Validates     uint64
	Logs          uint64
	CommitsRPC    uint64
	Unlocks       uint64
}

// Participant is one ScaleTX storage server: a MICA shard plus the
// transaction handlers, registered on any RPC transport.
type Participant struct {
	Host  *host.Host
	Store *mica.Store
	Stats ParticipantStats

	log    *memory.Region
	logOff int
}

// logSize is the per-participant redo-log ring capacity.
const logSize = 8 << 20

// NewParticipant builds a participant with its own store and log.
func NewParticipant(h *host.Host, storeCfg mica.Config) *Participant {
	return &Participant{
		Host:  h,
		Store: mica.New(h, storeCfg),
		log:   h.Mem.Register(logSize, memory.PageSize2M, memory.LocalWrite),
	}
}

// RegisterHandlers installs the transaction handlers on an RPC server.
func (p *Participant) RegisterHandlers(s rpccore.Server) {
	s.Register(HExec, p.handleExec)
	s.Register(HValidate, p.handleValidate)
	s.Register(HLog, p.handleLog)
	s.Register(HCommit, p.handleCommit)
	s.Register(HUnlock, p.handleUnlock)
	s.Register(HGet, p.handleGet)
}

// handleExec reads R∪W items, locking W (§4.2 step 1). On a lock conflict
// everything locked so far is rolled back and StLockConflict returned.
func (p *Participant) handleExec(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Execs++
	txnID, reads, writes, err := DecodeExecReq(req)
	if err != nil {
		return EncodeExecResp(out, StNotFound, nil)
	}
	items := make([]ItemResult, 0, len(reads)+len(writes))
	for _, k := range reads {
		it, err := p.Store.Get(t, k)
		if err != nil {
			items = append(items, ItemResult{Found: false})
			continue
		}
		items = append(items, ItemResult{Found: true, Version: it.Version, Addr: it.Addr, Value: it.Value})
	}
	locked := make([][]byte, 0, len(writes))
	for _, k := range writes {
		it, err := p.Store.TryLock(t, k, txnID)
		if err != nil {
			// Roll back locks taken by this request.
			for _, lk := range locked {
				p.Store.Unlock(t, lk, txnID)
			}
			if errors.Is(err, mica.ErrLocked) {
				p.Stats.LockConflicts++
				return EncodeExecResp(out, StLockConflict, nil)
			}
			return EncodeExecResp(out, StNotFound, nil)
		}
		locked = append(locked, k)
		items = append(items, ItemResult{Found: true, Version: it.Version, Addr: it.Addr, Value: it.Value})
	}
	return EncodeExecResp(out, StOK, items)
}

// handleValidate re-reads versions (the ScaleTX-O validation path).
func (p *Participant) handleValidate(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Validates++
	_, keys, err := DecodeKeysReq(req)
	if err != nil {
		return EncodeVersionsResp(out, nil)
	}
	versions := make([]uint64, len(keys))
	for i, k := range keys {
		if it, err := p.Store.Get(t, k); err == nil {
			versions[i] = it.Version
		}
	}
	return EncodeVersionsResp(out, versions)
}

// handleLog appends redo records to the participant log (§4.2 step 3a).
// Nothing replays the log, so a record is only charged as CPU stores at
// its ring address; the region's bytes are never touched.
func (p *Participant) handleLog(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Logs++
	_, kvs, err := DecodeWriteReq(req)
	if err != nil {
		out[0] = 0
		return 1
	}
	for _, kv := range kvs {
		rec := 16 + len(kv.Key) + len(kv.Value)
		if p.logOff+rec > logSize {
			p.logOff = 0 // ring wrap
		}
		t.WriteMem(p.log.Base+uint64(p.logOff), rec)
		p.logOff += rec
	}
	out[0] = 1
	return 1
}

// handleCommit applies writes and releases locks via RPC (ScaleTX-O).
func (p *Participant) handleCommit(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.CommitsRPC++
	txnID, kvs, err := DecodeWriteReq(req)
	if err != nil {
		out[0] = 0
		return 1
	}
	ok := byte(1)
	for _, kv := range kvs {
		if err := p.Store.CommitWrite(t, kv.Key, kv.Value, txnID); err != nil {
			ok = 0
		}
	}
	out[0] = ok
	return 1
}

// handleUnlock releases W locks on abort.
func (p *Participant) handleUnlock(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Unlocks++
	txnID, keys, err := DecodeKeysReq(req)
	if err != nil {
		out[0] = 0
		return 1
	}
	for _, k := range keys {
		p.Store.Unlock(t, k, txnID)
	}
	out[0] = 1
	return 1
}

// handleGet is a plain non-transactional read (used by examples).
func (p *Participant) handleGet(t *host.Thread, clientID uint16, req, out []byte) int {
	it, err := p.Store.Get(t, req)
	if err != nil {
		out[0] = 0
		return 1
	}
	out[0] = 1
	copy(out[1:], it.Value)
	return 1 + len(it.Value)
}
