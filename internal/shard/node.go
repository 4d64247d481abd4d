package shard

import (
	"encoding/binary"

	"scalerpc/internal/ctrlplane"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/nic"
	"scalerpc/internal/recycle"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// handlerTab captures a participant's handlers without a real server: it
// implements rpccore.Server so txn.Participant.RegisterHandlers lands in a
// plain dispatch table the node indexes per partition.
type handlerTab map[uint8]rpccore.Handler

func (h handlerTab) Register(id uint8, fn rpccore.Handler) { h[id] = fn }
func (h handlerTab) Start()                                {}

// Replication timing resolves well under the default fault schedules: a
// forward retries twice inside a replTimeout envelope.
const (
	// replTimeout bounds one synchronous primary→backup forward; past it
	// the primary answers the client RRetry (puts) or proceeds without the
	// backup (2PC commits, which are already decided).
	replTimeout = 200 * sim.Microsecond
	// replCallTimeout, replRetryInterval and replMaxRetries are the
	// exactly-once caller knobs on the replication link.
	replCallTimeout   = 60 * sim.Microsecond
	replRetryInterval = 25 * sim.Microsecond
	replMaxRetries    = 2
)

type txnTok struct {
	id   uint64
	part int
}

// Node is one shard server: MICA partitions with their ScaleTX
// participants (primary or backup role per the installed map), the routed
// request handler for its ScaleRPC server, and the replication handler for
// its dedicated raw-write replication server. A primary forwards each put
// to the partition's backup before applying it, so the backup holds the
// put's token before the client can see its ack — the property that keeps
// the exactly-once invariants across a failover; 2PC commits are already
// decided and are forwarded best-effort. Only the primary serves client
// ops.
type Node struct {
	HostID int
	Host   *host.Host

	store mica.Config // sizes each partition's MICA store
	stats *Stats
	cur   *Map

	parts map[int]*txn.Participant
	tabs  map[int]handlerTab

	// appliedKV caches replies by put token; appliedTxn records applied
	// 2PC commits by (txnID, partition). Both are fed by the client path
	// on the primary and the replication path on the backup, which is
	// what lets a promoted backup dedup a retried request it only ever
	// saw as a replica.
	appliedKV  map[uint64][]byte
	appliedTxn map[txnTok]bool

	links   map[int]*replLink
	replSig *sim.Signal

	// scratch and recs are the handlers' per-invocation working memory:
	// decoded write sets and encoded replication records. Each handler
	// thread takes its own and returns it before it answers.
	scratch txn.ScratchPool
	recs    recycle.Bufs

	// ApplyHook observes fresh write applies for invariant accounting:
	// kind is "exec" on the primary client path, "repl" on the backup
	// replication path.
	ApplyHook func(token uint64, kind string)

	pushHandle uint64
}

// NewNode builds a node serving its slice of m on host h, each partition
// in a MICA store sized by store.
func NewNode(h *host.Host, m *Map, store mica.Config) *Node {
	n := &Node{
		HostID:     h.ID,
		Host:       h,
		store:      store,
		stats:      SharedStats(h.Tel.Registry()),
		cur:        m.Clone(),
		parts:      make(map[int]*txn.Participant),
		tabs:       make(map[int]handlerTab),
		appliedKV:  make(map[uint64][]byte),
		appliedTxn: make(map[txnTok]bool),
		links:      make(map[int]*replLink),
		replSig:    sim.NewSignal(h.Env),
	}
	prim, back := n.cur.HostPartitions(n.HostID)
	for _, p := range append(append([]int(nil), prim...), back...) {
		n.ensurePart(p)
	}
	return n
}

// Store returns the partition's store, creating it if the node was just
// assigned the partition (replica audits), and split from the store it
// follows or that follows it (see Deployment.LoadKV).
func (n *Node) Store(part int) *mica.Store {
	s := n.loadStore(part)
	s.Split()
	return s
}

// loadStore is Store without the split, for loading.
func (n *Node) loadStore(part int) *mica.Store {
	n.ensurePart(part)
	return n.parts[part].Store
}

func (n *Node) ensurePart(p int) {
	if n.parts[p] != nil {
		return
	}
	part := txn.NewParticipant(n.Host, n.store)
	tab := handlerTab{}
	part.RegisterHandlers(tab)
	n.parts[p] = part
	n.tabs[p] = tab
}

// applyMap installs a newer map version, creating stores for any
// partitions the node just picked up (they start empty: a drafted backup
// only catches writes from its promotion onward).
func (n *Node) applyMap(m *Map) {
	if m.Epoch <= n.cur.Epoch {
		return
	}
	n.cur = m.Clone()
	prim, back := n.cur.HostPartitions(n.HostID)
	for _, p := range append(append([]int(nil), prim...), back...) {
		n.ensurePart(p)
	}
	n.stats.MapPushes++
}

// AddReplLink wires the outbound replication connection toward peer. conn
// must terminate at peer's replication server; it is wrapped in the
// exactly-once caller with the replication link's retry policy.
func (n *Node) AddReplLink(peer int, conn rpccore.Conn) {
	n.links[peer] = newReplLink(conn, rpccore.SharedRel(n.Host.Tel.Registry()), n.replSig)
}

// ReplSignal is the activity signal replication connections must be
// created with, so responses wake blocked forwards.
func (n *Node) ReplSignal() *sim.Signal { return n.replSig }

// RegisterOn installs the node's planes: the routed envelope handler on
// the client-facing server and the replication handler on the replication
// server.
func (n *Node) RegisterOn(client, repl rpccore.Server) {
	client.Register(HShard, n.handleShard)
	repl.Register(HRepl, n.handleRepl)
}

// InstallPushService registers the "shard.node" control-plane service the
// director pushes new map versions through.
func (n *Node) InstallPushService(mgr *ctrlplane.Manager) {
	mgr.RegisterService(SvcNodePush, nodePushSvc{n})
}

// StartLease dials the director's lease service once and holds the
// connection open, so the node's control-plane manager keepalives carry
// its liveness to the director from then on.
func (n *Node) StartLease(mgr *ctrlplane.Manager, directorHost int) {
	n.Host.Spawn("shard-lease", func(t *host.Thread) {
		for {
			if _, err := mgr.Dial(t, directorHost, SvcLease, nil); err == nil {
				return // hold the connection forever; never Close
			}
			t.P.Sleep(50 * sim.Microsecond)
		}
	})
}

// handleShard serves one routed request on the client-facing plane.
func (n *Node) handleShard(t *host.Thread, clientID uint16, req, out []byte) int {
	epoch, part, inner, body, err := DecodeEnv(req)
	if err != nil || part < 0 || part >= n.cur.Partitions {
		out[0] = RRetry
		return 1
	}
	if epoch != n.cur.Epoch {
		n.stats.EpochMismatches++
		out[0] = RStale
		binary.LittleEndian.PutUint32(out[1:], n.cur.Epoch)
		return 5
	}
	if n.cur.Primary[part] != n.HostID {
		// Only the primary serves client ops; a backup applies nothing but
		// the replication stream, so it bounces everything to the owner.
		out[0] = RWrongShard
		binary.LittleEndian.PutUint32(out[1:], n.cur.Epoch)
		binary.LittleEndian.PutUint16(out[5:], uint16(n.cur.Primary[part]))
		return 7
	}

	switch inner {
	case HKVGet:
		// A value that fits is read in place; a longer one is read into a
		// buffer of its own and cut to out's length.
		it, err := n.parts[part].Store.GetValue(t, body, out[2:2:len(out)])
		out[0] = ROK
		if err != nil {
			out[1] = 0
			return 2
		}
		out[1] = 1
		return 2 + copy(out[2:], it.Value)

	case HKVPut:
		token, key, value, err := DecodeKVPut(body)
		if err != nil {
			out[0] = RRetry
			return 1
		}
		if rep, ok := n.appliedKV[token]; ok {
			n.stats.DedupHits++
			return copy(out, rep)
		}
		s := n.scratch.Get()
		s.KVs = append(s.KVs, txn.KV{Key: key, Value: value})
		ok := n.replicate(t, part, ReplKV, token, s.KVs)
		n.scratch.Put(s)
		if !ok {
			out[0] = RRetry
			return 1
		}
		if _, err := n.parts[part].Store.Put(t, key, value); err != nil {
			out[0] = RRetry
			return 1
		}
		if n.ApplyHook != nil {
			n.ApplyHook(token, "exec")
		}
		n.appliedKV[token] = []byte{ROK}
		out[0] = ROK
		return 1

	case txn.HCommit:
		s := n.scratch.Get()
		txnID, kvs, err := txn.DecodeWriteReq(s.KVs, body)
		s.KVs = kvs
		if err != nil {
			n.scratch.Put(s)
			out[0] = RRetry
			return 1
		}
		key := txnTok{txnID, part}
		if n.appliedTxn[key] {
			n.scratch.Put(s)
			n.stats.DedupHits++
			out[0], out[1] = ROK, 1
			return 2
		}
		// The commit is already decided (logged everywhere), so a backup
		// that cannot be reached must not block it: forward best-effort
		// and apply regardless.
		n.replicate(t, part, ReplTxn, txnID, s.KVs)
		n.scratch.Put(s)
		m := n.tabs[part][txn.HCommit](t, clientID, body, out[1:])
		n.appliedTxn[key] = true
		out[0] = ROK
		return 1 + m

	default:
		fn := n.tabs[part][inner]
		if fn == nil {
			out[0] = RRetry
			return 1
		}
		m := fn(t, clientID, body, out[1:])
		out[0] = ROK
		return 1 + m
	}
}

// replicate synchronously forwards one write set to the partition's
// backup. True means the backup holds it (or there is no backup to hold
// it); false means the forward could not be confirmed in time.
func (n *Node) replicate(t *host.Thread, part int, kind uint8, token uint64, kvs []txn.KV) bool {
	b := n.cur.Backup[part]
	if b == NoHost {
		return true
	}
	link := n.links[b]
	if link == nil {
		return true // deployed without a replication mesh
	}
	size := 7 + 16
	for _, kv := range kvs {
		size += 3 + len(kv.Key) + len(kv.Value)
	}
	// The record goes back to the free list as soon as call returns: the
	// link's Conn copies the payload into its own staging block at
	// TrySend, and a retry re-posts from that block, so nothing reads buf
	// afterwards.
	buf := n.recs.Get(size)
	m := EncodeRepl(buf, n.cur.Epoch, part, kind, token, kvs)
	start := t.P.Now()
	n.stats.ReplForwards++
	status, ok := link.call(t, buf[:m], replTimeout)
	n.recs.Put(buf)
	if !ok || status != ROK {
		n.stats.ReplFailures++
		return false
	}
	n.stats.ObserveReplLag(int64(t.P.Now() - start))
	return true
}

// handleRepl applies one forwarded write set on the backup role's plane.
func (n *Node) handleRepl(t *host.Thread, clientID uint16, req, out []byte) int {
	s := n.scratch.Get()
	defer n.scratch.Put(s)
	epoch, part, kind, token, kvs, err := DecodeRepl(s.KVs, req)
	s.KVs = kvs
	if err != nil {
		out[0] = RRetry
		return 1
	}
	// Fence stale primaries: a forward stamped below our epoch comes from
	// a node that lost its partition in a failover we already installed.
	if epoch < n.cur.Epoch {
		out[0] = RStale
		return 1
	}
	n.ensurePart(part)
	switch kind {
	case ReplTxn:
		key := txnTok{token, part}
		if n.appliedTxn[key] {
			out[0] = ROK
			return 1
		}
		for _, kv := range kvs {
			n.parts[part].Store.Put(t, kv.Key, kv.Value)
		}
		n.appliedTxn[key] = true
	default: // ReplKV
		if _, ok := n.appliedKV[token]; ok {
			out[0] = ROK
			return 1
		}
		for _, kv := range kvs {
			n.parts[part].Store.Put(t, kv.Key, kv.Value)
		}
		if n.ApplyHook != nil {
			n.ApplyHook(token, "repl")
		}
		n.appliedKV[token] = []byte{ROK}
	}
	out[0] = ROK
	return 1
}

// replSlot is one forward's completion state. It lives by value in its
// link's slots and is reused once its call returns.
type replSlot struct {
	reqID  uint64
	busy   bool
	done   bool
	err    bool
	status uint8
}

// replLink is one node→peer replication connection: an exactly-once
// caller over the raw-write plane, shared by every handler thread on the
// node (each call matches its own request id out of the slots).
type replLink struct {
	caller  *rpccore.Caller
	sig     *sim.Signal
	nextReq uint64
	slots   []replSlot
	// onResp is deliver, bound once: a poll builds no closure.
	onResp func(rpccore.Response)
}

// newReplLink wraps conn in the exactly-once caller with the replication
// link's retry policy; sig is the signal conn's responses raise.
func newReplLink(conn rpccore.Conn, rel *rpccore.RelStats, sig *sim.Signal) *replLink {
	opts := rpccore.CallOpts{Timeout: replCallTimeout, RetryInterval: replRetryInterval, MaxRetries: replMaxRetries}
	l := &replLink{caller: rpccore.NewCaller(conn, opts, rel), sig: sig}
	l.onResp = l.deliver
	return l
}

// call sends one replication record and blocks until its ack, a caller
// timeout, or the outer deadline.
func (l *replLink) call(t *host.Thread, payload []byte, timeout sim.Duration) (uint8, bool) {
	l.nextReq++
	reqID := l.nextReq
	// The slot is named by index: slots may grow while this call waits.
	i := l.take(reqID)
	deadline := t.P.Now() + timeout
	posted := false
	for {
		if !posted {
			posted = l.caller.TrySend(t, HRepl, payload, reqID)
		}
		l.caller.Poll(t, l.onResp)
		if s := l.slots[i]; s.done {
			l.release(i)
			if s.err {
				return 0, false
			}
			return s.status, true
		}
		if t.P.Now() >= deadline {
			l.release(i)
			return 0, false
		}
		wait := deadline - t.P.Now()
		if wait > 5*sim.Microsecond {
			wait = 5 * sim.Microsecond
		}
		t.WaitSignal(l.sig, wait)
	}
}

// take claims a free slot for reqID and returns its index.
func (l *replLink) take(reqID uint64) int {
	i := 0
	for i < len(l.slots) && l.slots[i].busy {
		i++
	}
	if i == len(l.slots) {
		l.slots = append(l.slots, replSlot{})
	}
	l.slots[i] = replSlot{reqID: reqID, busy: true}
	return i
}

// release frees slot i, poisoning it under recycle.Poison.
func (l *replLink) release(i int) {
	if recycle.Poison {
		l.slots[i] = replSlot{reqID: recycle.Word, done: true, status: recycle.Byte}
		return
	}
	l.slots[i] = replSlot{}
}

// deliver records a response against the call it answers; one for a call
// that already returned finds no busy slot and is dropped.
func (l *replLink) deliver(r rpccore.Response) {
	for i := range l.slots {
		s := &l.slots[i]
		if !s.busy || s.reqID != r.ReqID {
			continue
		}
		if s.done {
			return
		}
		s.done = true
		if r.Err || r.TimedOut || len(r.Payload) < 1 {
			s.err = true
			return
		}
		s.status = r.Payload[0]
		return
	}
}

// nodePushSvc receives map versions the director pushes.
type nodePushSvc struct{ n *Node }

func (s nodePushSvc) Accept(t *host.Thread, peer int, qp *nic.QP, payload []byte) ([]byte, uint64, error) {
	if m, err := DecodeMap(payload); err == nil {
		s.n.applyMap(m)
	}
	s.n.pushHandle++
	return nil, s.n.pushHandle, nil
}

func (s nodePushSvc) Resume(t *host.Thread, peer int, qp *nic.QP, payload []byte, handle uint64) ([]byte, uint64, error) {
	if m, err := DecodeMap(payload); err == nil {
		s.n.applyMap(m)
	}
	return nil, handle, nil
}

func (s nodePushSvc) Closed(peer int, handle uint64, reason ctrlplane.CloseReason) {}
