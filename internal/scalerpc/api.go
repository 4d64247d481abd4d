package scalerpc

import (
	"errors"

	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// This file provides the paper's named client API (§3.5): SyncCall posts a
// remote procedure call and blocks until its response; AsyncCall posts one
// of a batch of calls; PollCompletion collects finished calls. They are
// thin wrappers over the connection's TrySend/Poll machinery, so the
// IDLE/WARMUP/PROCESS state machine behaves identically underneath.

// ErrTimeout reports that a synchronous call did not complete in time.
var ErrTimeout = errors.New("scalerpc: call timed out")

// Completion is one finished asynchronous call.
type Completion struct {
	Handle  uint64
	Payload []byte
	Err     bool
}

// AsyncCall posts one asynchronous call and returns its handle. It blocks
// only while the connection's request window is full or the client is
// waiting out a context switch (it keeps polling meanwhile); the response
// is collected later with PollCompletion.
func (c *Conn) AsyncCall(t *host.Thread, handler uint8, req []byte) uint64 {
	c.nextHandle++
	h := c.nextHandle
	for !c.TrySend(t, handler, req, h) {
		c.pollIntoCompletions(t)
		t.WaitSignal(c.sig, 5*sim.Microsecond)
	}
	return h
}

// PollCompletion returns up to max finished calls, without blocking.
// Returned payloads are copies and remain valid.
func (c *Conn) PollCompletion(t *host.Thread, max int) []Completion {
	c.pollIntoCompletions(t)
	n := min(len(c.completions), max)
	out := c.completions[:n:n]
	c.completions = append([]Completion(nil), c.completions[n:]...)
	return out
}

// SyncCall posts one call and blocks until its response arrives or timeout
// elapses (0 means a generous default covering several group rotations).
func (c *Conn) SyncCall(t *host.Thread, handler uint8, req []byte, timeout sim.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 50 * sim.Millisecond
	}
	deadline := t.P.Now() + timeout
	h := c.AsyncCall(t, handler, req)
	for {
		c.pollIntoCompletions(t)
		for i, comp := range c.completions {
			if comp.Handle == h {
				c.completions = append(c.completions[:i], c.completions[i+1:]...)
				if comp.Err {
					return nil, errors.New("scalerpc: remote error")
				}
				return comp.Payload, nil
			}
		}
		remain := deadline - t.P.Now()
		if remain <= 0 {
			return nil, ErrTimeout
		}
		t.WaitSignal(c.sig, min(remain, 5*sim.Microsecond))
	}
}

// pollIntoCompletions drains the transport into the completion buffer.
func (c *Conn) pollIntoCompletions(t *host.Thread) {
	c.Poll(t, func(r rpccore.Response) {
		c.completions = append(c.completions, Completion{
			Handle:  r.ReqID,
			Payload: append([]byte(nil), r.Payload...),
			Err:     r.Err,
		})
	})
}
