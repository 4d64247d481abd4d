package rpccore

// CachedReply is one committed response retained for dedup replay.
type CachedReply struct {
	Payload []byte
	Err     bool
}

// replySlot is one admitted request. payload keeps its backing array across
// reuses of the slot, so a steady-state Commit copies without allocating.
type replySlot struct {
	reqID   uint64
	ready   bool
	err     bool
	payload []byte
}

// clientCache is one client's dedup window: a ring of slots in admit order,
// oldest at head, looked up by scan (the window is a handful of entries).
type clientCache struct {
	slots []replySlot
	head  int
	n     int
}

// slotBytes is each slot's share of its client's backing array: enough for
// the small replies most handlers return. A larger payload grows a buffer
// of its own.
const slotBytes = 64

// newClientCache makes a window of n slots whose payload buffers are cut
// from one backing array, so no slot allocates on its first commit.
func newClientCache(n int) *clientCache {
	cc := &clientCache{slots: make([]replySlot, n)}
	buf := make([]byte, n*slotBytes)
	for i := range cc.slots {
		cc.slots[i].payload = buf[i*slotBytes : i*slotBytes : (i+1)*slotBytes]
	}
	return cc
}

// find returns the live slot holding reqID, or nil.
func (cc *clientCache) find(reqID uint64) *replySlot {
	for i := 0; i < cc.n; i++ {
		s := &cc.slots[(cc.head+i)%len(cc.slots)]
		if s.reqID == reqID {
			return s
		}
	}
	return nil
}

// ReplyCache is the server-side exactly-once filter: a bounded
// per-(clientID, reqID) record of executed (or executing) requests and
// their committed responses. A server consults it before running a
// handler; duplicates — client retries after a timeout, a context-switch
// race, or a reconnect/rejoin — are answered from cache instead of
// re-executed, upgrading the transports' at-least-once retry windows to
// at-most-once execution with exactly-once results for acknowledged work.
//
// Sizing: a client retries only requests still occupying one of its W
// request slots, so its live reqIDs always fall within its last W distinct
// ones. Retaining 2W entries per client therefore guarantees no
// false re-execution: by the time an entry is evicted the client has
// issued ≥ W newer requests, which it could only do after the evicted
// one's response freed its slot.
type ReplyCache struct {
	perClient int
	clients   map[uint16]*clientCache
}

// NewReplyCache sizes the cache for clients with the given request-window
// size (slots per client).
func NewReplyCache(window int) *ReplyCache {
	per := 2 * window
	if per < 4 {
		per = 4
	}
	return &ReplyCache{perClient: per, clients: make(map[uint16]*clientCache)}
}

// Admit records the arrival of (client, reqID). New requests are marked
// in-flight and dup=false: the caller must run the handler and Commit.
// Known requests return dup=true; if the first execution already committed,
// ready is true and rep holds the response to replay. dup && !ready means
// the original is still executing (a legacy-mode handler in progress) —
// the caller drops the duplicate silently; the in-flight execution's
// response is on its way. rep.Payload aliases the cache's own buffer: copy
// it before the next Admit or Commit for the same client.
func (rc *ReplyCache) Admit(client uint16, reqID uint64) (dup bool, rep CachedReply, ready bool) {
	cc := rc.clients[client]
	if cc == nil {
		cc = newClientCache(rc.perClient)
		rc.clients[client] = cc
	}
	if s := cc.find(reqID); s != nil {
		return true, CachedReply{Payload: s.payload, Err: s.err}, s.ready
	}
	if cc.n == len(cc.slots) { // FIFO eviction of the oldest admit
		cc.head = (cc.head + 1) % len(cc.slots)
		cc.n--
	}
	s := &cc.slots[(cc.head+cc.n)%len(cc.slots)]
	cc.n++
	s.reqID, s.ready, s.err, s.payload = reqID, false, false, s.payload[:0]
	return false, CachedReply{}, false
}

// Commit stores the executed response for (client, reqID), copying the
// payload into the request's slot (the caller's buffer is reused per
// request). A commit for an entry the window already evicted is dropped.
func (rc *ReplyCache) Commit(client uint16, reqID uint64, payload []byte, errFlag bool) {
	cc := rc.clients[client]
	if cc == nil {
		return
	}
	s := cc.find(reqID)
	if s == nil {
		return
	}
	s.ready, s.err = true, errFlag
	s.payload = append(s.payload[:0], payload...)
}

// Drop forgets everything recorded for a client id. Call when the id is
// released for reuse (lease expiry, cache teardown, zone reclamation) —
// a fresh client under the same id starts its own reqID space.
func (rc *ReplyCache) Drop(client uint16) { delete(rc.clients, client) }
