package txn

import (
	"errors"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/recycle"
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
	// scratch is the handlers' per-invocation working memory: every
	// handler takes its own, so one that yields mid-way (a store access, a
	// replication forward in the shard layer) never shares lists with
	// another running on a different thread.
	scratch ScratchPool
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
}

// handleExec reads R∪W items, locking W (§4.2 step 1). On a lock conflict
// everything locked so far is rolled back and StLockConflict returned.
func (p *Participant) handleExec(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Execs++
	s := p.scratch.Get()
	defer p.scratch.Put(s)
	var txnID uint64
	var err error
	txnID, s.Reads, s.Writes, err = DecodeExecReq(s.Reads, s.Writes, req)
	if err != nil {
		return EncodeExecResp(out, StNotFound, nil)
	}
	// Each value is copied into s.Vals beside the version it was read
	// with: a later lookup's charge yields, and a commit landing then must
	// not change a value already paired with its old version.
	for _, k := range s.Reads {
		it, err := p.Store.GetValue(t, k, s.Vals)
		if err != nil {
			s.Items = append(s.Items, ItemResult{Found: false})
			continue
		}
		s.Items = append(s.Items, ItemResult{Found: true, Version: it.Version, Addr: it.Addr, Value: it.Value[len(s.Vals):]})
		s.Vals = it.Value
	}
	for _, k := range s.Writes {
		it, err := p.Store.TryLock(t, k, txnID, s.Vals)
		if err != nil {
			// Roll back locks taken by this request.
			for _, lk := range s.Locked {
				p.Store.Unlock(t, lk, txnID)
			}
			if errors.Is(err, mica.ErrLocked) {
				p.Stats.LockConflicts++
				return EncodeExecResp(out, StLockConflict, nil)
			}
			return EncodeExecResp(out, StNotFound, nil)
		}
		s.Locked = append(s.Locked, k)
		s.Items = append(s.Items, ItemResult{Found: true, Version: it.Version, Addr: it.Addr, Value: it.Value[len(s.Vals):]})
		s.Vals = it.Value
	}
	return EncodeExecResp(out, StOK, s.Items)
}

// handleValidate re-reads versions (the ScaleTX-O validation path).
func (p *Participant) handleValidate(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Validates++
	s := p.scratch.Get()
	defer p.scratch.Put(s)
	var err error
	if _, s.Reads, err = DecodeKeysReq(s.Reads, req); err != nil {
		return EncodeVersionsResp(out, nil)
	}
	for _, k := range s.Reads {
		var v uint64
		if it, err := p.Store.Get(t, k); err == nil {
			v = it.Version
		}
		s.Versions = append(s.Versions, v)
	}
	return EncodeVersionsResp(out, s.Versions)
}

// handleLog appends redo records to the participant log (§4.2 step 3a).
// Nothing replays the log, so a record is only charged as CPU stores at
// its ring address; the region's bytes are never touched.
func (p *Participant) handleLog(t *host.Thread, clientID uint16, req, out []byte) int {
	p.Stats.Logs++
	s := p.scratch.Get()
	defer p.scratch.Put(s)
	var err error
	if _, s.KVs, err = DecodeWriteReq(s.KVs, req); err != nil {
		out[0] = 0
		return 1
	}
	for _, kv := range s.KVs {
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
	s := p.scratch.Get()
	defer p.scratch.Put(s)
	var txnID uint64
	var err error
	if txnID, s.KVs, err = DecodeWriteReq(s.KVs, req); err != nil {
		out[0] = 0
		return 1
	}
	ok := byte(1)
	for _, kv := range s.KVs {
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
	s := p.scratch.Get()
	defer p.scratch.Put(s)
	var txnID uint64
	var err error
	if txnID, s.Writes, err = DecodeKeysReq(s.Writes, req); err != nil {
		out[0] = 0
		return 1
	}
	for _, k := range s.Writes {
		p.Store.Unlock(t, k, txnID)
	}
	out[0] = 1
	return 1
}

// Scratch is one handler invocation's working memory: the keys or write
// set it decoded, the items it read with their values copied into Vals,
// the locks it took and the versions it re-read. What it holds aliases the
// request being served, so it lives exactly as long as the invocation: the
// handler takes one from a ScratchPool on entry and puts it back on every
// exit path.
type Scratch struct {
	Reads, Writes [][]byte
	KVs           []KV
	Items         []ItemResult
	Locked        [][]byte
	Versions      []uint64
	Vals          []byte
}

// ScratchPool is a free list of Scratch. Concurrent invocations get
// distinct ones.
type ScratchPool struct {
	l   recycle.List[Scratch]
	bad [8]byte // what a poisoned Scratch's keys and values read
}

// Get takes an empty Scratch.
func (p *ScratchPool) Get() *Scratch { return p.l.Get() }

// Put empties s, keeping its backing arrays, and returns it. The vacated
// elements are cleared so nothing stays reachable past len, or poisoned
// under recycle.Poison so a holder that kept a slice header sees garbage.
func (p *ScratchPool) Put(s *Scratch) {
	var bad []byte
	var word uint64
	if recycle.Poison {
		recycle.PoisonBytes(p.bad[:])
		bad, word = p.bad[:], recycle.Word
	}
	for _, keys := range [...][][]byte{s.Reads, s.Writes, s.Locked} {
		for i := range keys {
			keys[i] = bad
		}
	}
	for i := range s.KVs {
		s.KVs[i] = KV{Key: bad, Value: bad}
	}
	for i := range s.Items {
		s.Items[i] = ItemResult{Found: recycle.Poison, Version: word, Addr: word, Value: bad}
	}
	for i := range s.Versions {
		s.Versions[i] = word
	}
	if recycle.Poison {
		recycle.PoisonBytes(s.Vals)
	}
	s.Reads, s.Writes, s.Locked = s.Reads[:0], s.Writes[:0], s.Locked[:0]
	s.KVs, s.Items, s.Versions, s.Vals = s.KVs[:0], s.Items[:0], s.Versions[:0], s.Vals[:0]
	p.l.Put(s)
}
