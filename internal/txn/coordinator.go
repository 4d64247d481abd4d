package txn

import (
	"errors"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/nic"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// ErrAborted reports a transaction abort (lock conflict or validation
// failure); the caller may retry.
var ErrAborted = errors.New("txn: aborted")

// Txn is one transaction specification. Apply receives the execution-phase
// values of Reads and Writes (in order) and returns the new values for
// Writes. The slices it receives are the coordinator's scratch, valid only
// during the call; what it returns must stay intact until Run returns.
type Txn struct {
	Reads  [][]byte
	Writes [][]byte
	Apply  func(readVals, writeVals [][]byte) [][]byte
}

// ShardKey maps a key to one of n participants; loaders and coordinators
// must agree on it.
func ShardKey(key []byte, n int) int {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	// Decorrelate from mica's bucket index (same FNV) by mixing.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return int(h % uint64(n))
}

// PartRef is the coordinator's handle to one participant.
type PartRef struct {
	Part   *Participant
	Conn   rpccore.Conn
	qp     *nic.QP
	kvRKey uint32

	// onResp is this participant's Poll callback, bound once (to match):
	// which calls a pass is matching against lives in the coordinator, not
	// in a closure per participant per pass.
	c      *Coordinator
	pi     int
	onResp func(rpccore.Response)
}

// match hands one response from this participant to the pending call it
// answers.
func (ref *PartRef) match(r rpccore.Response) {
	c := ref.c
	for _, call := range c.polling {
		if call.pi == ref.pi && call.reqID == r.ReqID && !call.done {
			call.resp = append(call.resp[:0], r.Payload...)
			call.errResp = r.Err
			call.done = true
			c.polled++
			return
		}
	}
}

// CoordinatorStats counts transaction outcomes.
type CoordinatorStats struct {
	Commits          uint64 `json:"commits"`
	LockAborts       uint64 `json:"lock_aborts"`
	ValidationAborts uint64 `json:"validation_aborts"`
	NotFoundAborts   uint64 `json:"not_found_aborts"`
	OneSidedReads    uint64 `json:"one_sided_reads"`
	OneSidedWrites   uint64 `json:"one_sided_writes"`
}

// Coordinator drives transactions from a client host (§4.2). With OneSided
// set it follows the ScaleTX protocol (RDMA READ validation, RDMA WRITE
// commit); otherwise it is ScaleTX-O (RPC everywhere).
type Coordinator struct {
	ID       uint64
	OneSided bool
	Stats    CoordinatorStats

	// Place maps a key to the participant index that owns it. It defaults
	// to ShardKey over the participant count; a sharded deployment swaps
	// in its shard-map placement so txn and KV routing agree on ownership.
	Place func(key []byte) int

	h       *host.Host
	parts   []*PartRef
	sig     *sim.Signal
	cq      *nic.CQ
	scratch *memory.Region
	nextReq uint64
	nextTxn uint64

	// One thread drives a coordinator, so the calls a pollConns pass is
	// matching (and how many it matched) live here for the PartRef
	// callbacks, and every per-attempt slice and buffer lives in run.
	polling []*pendingCall
	polled  int
	run     runArena

	// AfterExec, when set, runs between the execution and validation
	// phases — a deterministic injection point for concurrency tests.
	AfterExec func(t *host.Thread)
}

// NewCoordinator wires a coordinator to its participants: the supplied RPC
// connections (one per participant, same order) plus dedicated RC QPs for
// the one-sided phases.
func NewCoordinator(h *host.Host, id uint64, parts []*Participant, conns []rpccore.Conn, oneSided bool, sig *sim.Signal) *Coordinator {
	if len(parts) != len(conns) {
		panic("txn: participants/conns mismatch")
	}
	c := &Coordinator{
		ID:       id,
		OneSided: oneSided,
		h:        h,
		sig:      sig,
		scratch:  h.Mem.Register(16<<10, memory.PageSize2M, memory.LocalWrite),
	}
	c.cq = h.NIC.CreateCQ()
	c.cq.Sig = sig
	for i, p := range parts {
		ref := &PartRef{Part: p, Conn: conns[i], kvRKey: p.Store.Region().RKey}
		pcq := p.Host.NIC.CreateCQ()
		pqp := p.Host.NIC.CreateQP(nic.RC, pcq, pcq)
		cqp := h.NIC.CreateQP(nic.RC, c.cq, c.cq)
		if err := nic.Connect(cqp, pqp); err != nil {
			panic(err)
		}
		ref.qp = cqp
		c.addPart(ref)
	}
	n := len(c.parts)
	c.Place = func(key []byte) int { return ShardKey(key, n) }
	return c
}

// addPart appends ref as the next participant and binds its callback.
func (c *Coordinator) addPart(ref *PartRef) {
	ref.c, ref.pi = c, len(c.parts)
	ref.onResp = ref.match
	c.parts = append(c.parts, ref)
}

// NewRoutedCoordinator wires a coordinator to opaque RPC connections only —
// no local Participant handles and no one-sided QPs — so it can drive 2PC
// through a shard router where the participants live behind the wire. place
// decides which connection owns each key; the coordinator is RPC-only
// (OneSided must stay false).
func NewRoutedCoordinator(h *host.Host, id uint64, conns []rpccore.Conn, place func(key []byte) int, sig *sim.Signal) *Coordinator {
	c := &Coordinator{
		ID:    id,
		Place: place,
		h:     h,
		sig:   sig,
	}
	if c.Place == nil {
		n := len(conns)
		c.Place = func(key []byte) int { return ShardKey(key, n) }
	}
	for _, conn := range conns {
		c.addPart(&PartRef{Conn: conn})
	}
	return c
}

// Spawn starts fn as a thread on the coordinator's host.
func (c *Coordinator) Spawn(fn func(*host.Thread, *Coordinator)) {
	c.h.Spawn("coordinator", func(t *host.Thread) { fn(t, c) })
}

// pendingCall tracks one in-flight RPC.
type pendingCall struct {
	pi      int
	handler uint8
	req     []byte
	reqID   uint64
	resp    []byte
	done    bool
	errResp bool
}

// doCalls posts all calls and blocks until every response arrived.
func (c *Coordinator) doCalls(t *host.Thread, calls []*pendingCall) {
	c.run.posted = resized(c.run.posted, len(calls))
	posted := c.run.posted
	for {
		progress := false
		allDone := true
		for i, call := range calls {
			if !posted[i] {
				if c.parts[call.pi].Conn.TrySend(t, call.handler, call.req, call.reqID) {
					posted[i] = true
					progress = true
				}
			}
			if !call.done {
				allDone = false
			}
		}
		if c.pollConns(t, calls) > 0 {
			progress = true
		}
		if allDone {
			allPosted := true
			for _, p := range posted {
				allPosted = allPosted && p
			}
			if allPosted {
				return
			}
		}
		if !progress {
			t.WaitSignal(c.sig, 10*sim.Microsecond)
		}
	}
}

// pollConns drains every participant connection, matching responses to
// pending calls.
func (c *Coordinator) pollConns(t *host.Thread, calls []*pendingCall) int {
	c.polling, c.polled = calls, 0
	for _, ref := range c.parts {
		ref.Conn.Poll(t, ref.onResp)
	}
	c.polling = nil
	return c.polled
}

func (c *Coordinator) reqID() uint64 {
	c.nextReq++
	return c.ID<<40 | c.nextReq
}

// perPart groups a transaction's keys by owning participant.
type perPart struct {
	reads, writes     [][]byte
	readIdx, writeIdx []int // positions in the txn's global key lists
	execCall          *pendingCall
	items             []ItemResult
	execOK            bool // the execution phase took this participant's W locks
}

// runArena is the coordinator's scratch for one Run attempt, reset at the
// start of the next: the per-participant key groups, every pendingCall with
// its request and response buffers, and the execution-phase result slices.
// Nothing in it outlives the attempt — Apply sees readVals/writeVals only
// while it runs — so a steady-state transaction allocates nothing here.
type runArena struct {
	parts    []perPart // by participant index
	involved []int     // participants this attempt touches, in first-use order
	calls    []*pendingCall
	pool     []*pendingCall // every call built so far; pool[:used] belong to this attempt
	used     int
	posted   []bool
	kvs      []KV
	order    [][]int

	vals                []byte // backing store of the copied item values
	readVals, writeVals [][]byte
	readVers, readAddr  []uint64
	writeVers           []uint64
	writeAddr           []uint64
	readPart            []int
	vers                []uint64
}

// resized returns s with length n and every element zeroed, reusing its
// backing array when that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin resets the arena for a new attempt over n participants.
func (a *runArena) begin(n int) {
	if len(a.parts) != n {
		a.parts = make([]perPart, n)
	}
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		*pp = perPart{reads: pp.reads[:0], writes: pp.writes[:0],
			readIdx: pp.readIdx[:0], writeIdx: pp.writeIdx[:0], items: pp.items[:0]}
	}
	a.involved = a.involved[:0]
	a.used = 0
	a.vals = a.vals[:0]
}

// need returns participant pi's key group, marking it involved on first use.
func (a *runArena) need(pi int) *perPart {
	pp := &a.parts[pi]
	if len(pp.reads)+len(pp.writes) == 0 {
		a.involved = append(a.involved, pi)
	}
	return pp
}

// keep copies v into the arena and returns the copy.
func (a *runArena) keep(v []byte) []byte {
	start := len(a.vals)
	a.vals = append(a.vals, v...)
	return a.vals[start:len(a.vals):len(a.vals)]
}

// newCall adds a recycled pendingCall for participant pi, with a request
// buffer of reqLen bytes, to the phase being built in run.calls.
func (c *Coordinator) newCall(pi int, handler uint8, reqLen int) *pendingCall {
	a := &c.run
	if a.used == len(a.pool) {
		a.pool = append(a.pool, &pendingCall{})
	}
	call := a.pool[a.used]
	a.used++
	*call = pendingCall{pi: pi, handler: handler, req: resized(call.req, reqLen), reqID: c.reqID(), resp: call.resp[:0]}
	a.calls = append(a.calls, call)
	return call
}

// writeCalls builds one HLog or HCommit call per participant with writes.
func (c *Coordinator) writeCalls(handler uint8, txnID uint64, txn *Txn, newVals [][]byte) []*pendingCall {
	a := &c.run
	a.calls = a.calls[:0]
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		if len(pp.writes) == 0 {
			continue
		}
		kvs := a.kvs[:0]
		for _, gi := range pp.writeIdx {
			kvs = append(kvs, KV{Key: txn.Writes[gi], Value: newVals[gi]})
		}
		a.kvs = kvs
		call := c.newCall(pi, handler, 16+writeReqBytes(kvs))
		call.req = call.req[:EncodeWriteReq(call.req, txnID, kvs)]
	}
	return a.calls
}

// Run executes one transaction to commit or abort.
func (c *Coordinator) Run(t *host.Thread, txn *Txn) error {
	c.nextTxn++
	txnID := c.ID<<40 | c.nextTxn
	a := &c.run
	a.begin(len(c.parts))
	for i, k := range txn.Reads {
		pp := a.need(c.Place(k))
		pp.reads = append(pp.reads, k)
		pp.readIdx = append(pp.readIdx, i)
	}
	for i, k := range txn.Writes {
		pp := a.need(c.Place(k))
		pp.writes = append(pp.writes, k)
		pp.writeIdx = append(pp.writeIdx, i)
	}

	// --- Phase 1: Execution (read R∪W, lock W) ---
	a.calls = a.calls[:0]
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		call := c.newCall(pi, HExec, 16+totalKeyBytes(pp.reads)+totalKeyBytes(pp.writes))
		call.req = call.req[:EncodeExecReq(call.req, txnID, pp.reads, pp.writes)]
		pp.execCall = call
	}
	c.doCalls(t, a.calls)

	a.readVals = resized(a.readVals, len(txn.Reads))
	a.writeVals = resized(a.writeVals, len(txn.Writes))
	a.readVers = resized(a.readVers, len(txn.Reads))
	a.readAddr = resized(a.readAddr, len(txn.Reads))
	a.readPart = resized(a.readPart, len(txn.Reads))
	a.writeVers = resized(a.writeVers, len(txn.Writes))
	a.writeAddr = resized(a.writeAddr, len(txn.Writes))
	readVals, writeVals := a.readVals, a.writeVals
	readVers, readAddr, readPart := a.readVers, a.readAddr, a.readPart
	writeVers, writeAddr := a.writeVers, a.writeAddr

	conflict, missing := false, false
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		status, items, err := DecodeExecResp(pp.items[:0], pp.execCall.resp, len(pp.reads)+len(pp.writes))
		if err != nil || pp.execCall.errResp {
			missing = true
			continue
		}
		switch status {
		case StLockConflict:
			conflict = true
			continue
		case StNotFound:
			missing = true
			continue
		}
		pp.items, pp.execOK = items, true
		for j, gi := range pp.readIdx {
			if !items[j].Found {
				missing = true
				continue
			}
			readVals[gi] = a.keep(items[j].Value)
			readVers[gi] = items[j].Version
			readAddr[gi] = items[j].Addr
			readPart[gi] = pi
		}
		for j, gi := range pp.writeIdx {
			it := items[len(pp.reads)+j]
			if !it.Found {
				missing = true
				continue
			}
			writeVals[gi] = a.keep(it.Value)
			writeVers[gi] = it.Version
			writeAddr[gi] = it.Addr
		}
	}
	if conflict || missing {
		// Release locks on participants whose exec succeeded.
		c.unlockAll(t, txnID)
		if conflict {
			c.Stats.LockAborts++
		} else {
			c.Stats.NotFoundAborts++
		}
		return ErrAborted
	}

	if c.AfterExec != nil {
		c.AfterExec(t)
	}

	// --- Phase 2: Validate R (§4.2 step 2) ---
	if len(txn.Reads) > 0 {
		ok := false
		if c.OneSided {
			ok = c.validateOneSided(t, readAddr, readVers, readPart)
		} else {
			ok = c.validateRPC(t, txnID, readVers)
		}
		if !ok {
			c.unlockAll(t, txnID)
			c.Stats.ValidationAborts++
			return ErrAborted
		}
	}

	if len(txn.Writes) == 0 {
		c.Stats.Commits++
		return nil
	}

	// --- Phase 3a: Log ---
	newVals := txn.Apply(readVals, writeVals)
	if len(newVals) != len(txn.Writes) {
		panic("txn: Apply returned wrong write count")
	}
	c.doCalls(t, c.writeCalls(HLog, txnID, txn, newVals))

	// --- Phase 3b: Commit ---
	if c.OneSided {
		// One RDMA WRITE per item installs value+version and zeroes the
		// lock, with no response to wait for (§4.2's key optimization).
		for gi := range txn.Writes {
			pi := c.Place(txn.Writes[gi])
			var img [256]byte
			n := mica.BuildCommitImage(img[:], txn.Writes[gi], newVals[gi], writeVers[gi]+1)
			_, _ = c.scratch.WriteAt(img[:n], int64(4096+gi*256)) // image gi's 256 B slot, past the version words
			t.WriteMem(c.scratch.Base+uint64(4096+gi*256), n)
			wr := nic.SendWR{
				Op:    nic.OpWrite,
				LKey:  c.scratch.LKey,
				LAddr: c.scratch.Base + uint64(4096+gi*256),
				Len:   n,
				RKey:  c.parts[pi].kvRKey,
				RAddr: writeAddr[gi],
			}
			if n <= c.h.NIC.Cfg.MaxInline {
				wr.Inline = true
			}
			t.PostSend(c.parts[pi].qp, wr)
			c.Stats.OneSidedWrites++
		}
	} else {
		c.doCalls(t, c.writeCalls(HCommit, txnID, txn, newVals))
	}
	c.Stats.Commits++
	return nil
}

// validateOneSided posts one RDMA READ per read item's version word and
// compares against the execution-phase versions.
func (c *Coordinator) validateOneSided(t *host.Thread, addrs []uint64, vers []uint64, part []int) bool {
	for i := range addrs {
		wr := nic.SendWR{
			WRID:     uint64(i),
			Op:       nic.OpRead,
			Signaled: true,
			LKey:     c.scratch.LKey,
			LAddr:    c.scratch.Base + uint64(i*8),
			Len:      8,
			RKey:     c.parts[part[i]].kvRKey,
			RAddr:    addrs[i] + mica.OffVersion,
		}
		if err := t.PostSend(c.parts[part[i]].qp, wr); err != nil {
			return false
		}
		c.Stats.OneSidedReads++
	}
	need := len(addrs)
	for need > 0 {
		cqes := t.WaitCQ(c.cq, need, 20*sim.Microsecond)
		need -= len(cqes)
	}
	for i := range addrs {
		t.ReadMem(c.scratch.Base+uint64(i*8), 8)
		var v [8]byte
		_, _ = c.scratch.ReadAt(v[:], int64(i*8)) // where READ i landed
		if mica.ParseVersion(v[:]) != vers[i] {
			return false
		}
	}
	return true
}

// validateRPC is the ScaleTX-O validation: HValidate calls per participant.
func (c *Coordinator) validateRPC(t *host.Thread, txnID uint64, readVers []uint64) bool {
	a := &c.run
	a.calls, a.order = a.calls[:0], a.order[:0]
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		if len(pp.reads) == 0 {
			continue
		}
		call := c.newCall(pi, HValidate, 16+totalKeyBytes(pp.reads))
		call.req = call.req[:EncodeKeysReq(call.req, txnID, pp.reads)]
		a.order = append(a.order, pp.readIdx)
	}
	c.doCalls(t, a.calls)
	for ci, call := range a.calls {
		vers, err := DecodeVersionsResp(a.vers[:0], call.resp)
		if err != nil || len(vers) != len(a.order[ci]) {
			return false
		}
		a.vers = vers
		for j, gi := range a.order[ci] {
			if vers[j] != readVers[gi] {
				return false
			}
		}
	}
	return true
}

// unlockAll releases W locks on every participant whose exec succeeded.
func (c *Coordinator) unlockAll(t *host.Thread, txnID uint64) {
	a := &c.run
	a.calls = a.calls[:0]
	for _, pi := range a.involved {
		pp := &a.parts[pi]
		if len(pp.writes) == 0 || !pp.execOK {
			continue
		}
		call := c.newCall(pi, HUnlock, 16+totalKeyBytes(pp.writes))
		call.req = call.req[:EncodeKeysReq(call.req, txnID, pp.writes)]
	}
	if len(a.calls) > 0 {
		c.doCalls(t, a.calls)
	}
}

func totalKeyBytes(keys [][]byte) int {
	n := 0
	for _, k := range keys {
		n += 1 + len(k)
	}
	return n
}

func writeReqBytes(kvs []KV) int {
	n := 0
	for _, kv := range kvs {
		n += 3 + len(kv.Key) + len(kv.Value)
	}
	return n
}

// String renders coordinator stats.
func (s CoordinatorStats) String() string {
	return fmt.Sprintf("commits=%d lockAborts=%d valAborts=%d notFound=%d 1sR=%d 1sW=%d",
		s.Commits, s.LockAborts, s.ValidationAborts, s.NotFoundAborts, s.OneSidedReads, s.OneSidedWrites)
}
