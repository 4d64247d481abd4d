package shard

import (
	"bytes"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/recycle"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

// scriptConn is a replication Conn whose replies the test schedules: each
// request is answered with its own first payload byte after a delay that
// cycles with its id, so replies arrive out of order; the request with id
// never is not answered at all. Cancel and Resend yield, as a real
// transport's posts do, which is where a Caller's timer sweep gets
// suspended holding a pendingCall.
type scriptConn struct {
	sent    []scripted // in flight, in send order
	never   uint64
	resp    [1]byte
	cancels []uint64
}

type scripted struct {
	reqID  uint64
	status byte
	due    sim.Time
}

func (c *scriptConn) TrySend(t *host.Thread, h uint8, payload []byte, reqID uint64) bool {
	delay := sim.Duration(1+reqID*7%13) * sim.Microsecond
	c.sent = append(c.sent, scripted{reqID: reqID, status: payload[0], due: t.P.Now() + delay})
	return true
}

func (c *scriptConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	n := 0
	keep := c.sent[:0]
	for _, s := range c.sent {
		if s.reqID == c.never || s.due > t.P.Now() {
			keep = append(keep, s)
			continue
		}
		c.resp[0] = s.status
		fn(rpccore.Response{ReqID: s.reqID, Payload: c.resp[:]})
		n++
	}
	c.sent = keep
	return n
}

func (c *scriptConn) Cancel(t *host.Thread, reqID uint64) bool {
	c.cancels = append(c.cancels, reqID)
	t.P.Sleep(10 * sim.Microsecond)
	return true
}

func (c *scriptConn) Resend(t *host.Thread, reqID uint64) bool {
	t.P.Sleep(3 * sim.Microsecond)
	return true
}

func (c *scriptConn) Outstanding() int { return len(c.sent) }
func (c *scriptConn) SlotCount() int   { return 64 }

// poisonRecycled turns recycle.Poison on for the rest of the test.
func poisonRecycled(t *testing.T) {
	recycle.Poison = true
	t.Cleanup(func() { recycle.Poison = false })
}

// TestRecycledCallStateStaysWithItsCall: four handler threads share one
// replLink, and so one Caller, with every recycled pendingCall, poll frame
// and result slot poisoned on release. Replies arrive out of order and one
// request is never answered. Every answered call must return its own
// status, and the unanswered one must fail through its own Caller timeout
// (its Cancel yields inside the timer sweep while the other threads send,
// poll and complete calls) rather than at the outer deadline.
func TestRecycledCallStateStaysWithItsCall(t *testing.T) {
	poisonRecycled(t)
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	conn := &scriptConn{never: 9}
	l := newReplLink(conn, nil, sig)

	const threads, calls = 4, 40
	type outcome struct {
		want, got byte
		ok        bool
		took      sim.Duration
	}
	res := make([][]outcome, threads)
	for k := 0; k < threads; k++ {
		c.Hosts[0].Spawn("handler", func(th *host.Thread) {
			th.P.Sleep(sim.Duration(k) * 700)
			for j := 0; j < calls; j++ {
				want := byte(1 + (k*calls+j)%250)
				start := th.P.Now()
				got, ok := l.call(th, []byte{want}, replTimeout)
				res[k] = append(res[k], outcome{want: want, got: got, ok: ok, took: th.P.Now() - start})
			}
		})
	}
	c.Env.RunUntil(20 * sim.Millisecond)

	failed := 0
	for k := range res {
		if len(res[k]) != calls {
			t.Fatalf("thread %d finished %d of %d calls", k, len(res[k]), calls)
		}
		for j, o := range res[k] {
			switch {
			case !o.ok:
				failed++
				if o.took >= replTimeout {
					t.Errorf("thread %d call %d failed at the outer deadline (%v), not through its own caller timeout", k, j, o.took)
				}
			case o.got != o.want:
				t.Errorf("thread %d call %d returned status %d, sent %d", k, j, o.got, o.want)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d calls failed, want exactly the unanswered one", failed)
	}
	if len(conn.cancels) != 1 || conn.cancels[0] != conn.never {
		t.Errorf("cancelled %v, want only request %d", conn.cancels, conn.never)
	}
	if got := l.caller.Rel.DeadlineExceeded; got != 1 {
		t.Errorf("caller timed out %d calls, want 1", got)
	}
}

// TestRecycledStateOnTheShardServers runs the SmallBank mix on the
// deployment with every recycled object poisoned on release — legacy
// bodies, handler scratch, replication records, pendingCalls, poll frames
// — with the handlers on the legacy thread and inline on the workers. A
// holder that read any of them after letting go would decode 0xA5s: a
// stale or unknown envelope, a missing row, a wrong write set, a garbled
// forward. So no transaction may abort on a missing row, no row may be
// left locked, and every backup must hold its primary's value for every
// row, except where a commit forward failed.
//
// Forwards do fail inline, before and after recycling (30 of ~2350
// here): rpccore.ReqWriter.Send yields between picking a free window slot
// and taking it, so two handler threads sharing a link's Conn can stage
// into the same slot, and the call whose response is lost times out. A
// failed commit forward is not retried, so its rows stay stale on the
// backup. Those are allowed for — at most three rows per failed forward,
// and under 5 % of forwards failed — and nothing else. When Send takes
// the slot before it yields, the allowance should go.
func TestRecycledStateOnTheShardServers(t *testing.T) {
	poisonRecycled(t)
	for _, tc := range []struct {
		name     string
		onLegacy bool
	}{{"legacy", true}, {"inline", false}} {
		t.Run(tc.name, func(t *testing.T) {
			run := runSmallBank(t, tc.onLegacy, 2*sim.Millisecond)
			defer run.c.Close()
			if run.notFound != 0 {
				t.Errorf("%d transactions aborted on a missing row", run.notFound)
			}
			st := run.d.Stats
			t.Logf("%d forwards, %d failed", st.ReplForwards, st.ReplFailures)
			if tc.onLegacy && st.ReplFailures != 0 {
				t.Errorf("%d of %d forwards failed on the legacy thread, want 0", st.ReplFailures, st.ReplForwards)
			}
			if 20*st.ReplFailures >= st.ReplForwards {
				t.Errorf("%d of %d forwards failed", st.ReplFailures, st.ReplForwards)
			}
			m := run.d.LiveMap()
			differ := 0
			for a := 0; a < 2000; a++ {
				for _, key := range [][]byte{smallbank.SavingsKey(a), smallbank.CheckingKey(a)} {
					p := m.PartitionOf(key)
					store := run.d.Nodes[m.Primary[p]].Store(p)
					prim, err := store.GetValue(nil, key, nil)
					if err != nil {
						t.Fatalf("row %s on its primary: %v", key, err)
					}
					back, err := run.d.Nodes[m.Backup[p]].Store(p).GetValue(nil, key, nil)
					if err != nil {
						t.Fatalf("row %s on its backup: %v", key, err)
					}
					if !bytes.Equal(prim.Value, back.Value) {
						differ++
					}
					if _, err := store.TryLock(nil, key, 31337, nil); err != nil {
						t.Errorf("row %s left locked: %v", key, err)
					} else {
						store.Unlock(nil, key, 31337)
					}
				}
			}
			if differ > 3*int(st.ReplFailures) {
				t.Errorf("%d rows differ between primary and backup; %d failed forwards explain at most %d",
					differ, st.ReplFailures, 3*st.ReplFailures)
			}
		})
	}
}
