package rds

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/scalerpc"
)

// RPCClient is the two-sided backend: each op is one ScaleRPC call whose
// handler runs the protocol server-side. One round trip per op regardless
// of op complexity — the crossover advantage RPC holds for multi-round-trip
// or large-payload operations — at the price of server CPU and a scheduler
// slot per op.
type RPCClient struct {
	d    *Deployment
	conn *scalerpc.Conn
	req  []byte
}

// call runs one synchronous op and validates the status byte.
func (c *RPCClient) call(t *host.Thread, h uint8, req []byte) ([]byte, error) {
	resp, err := c.conn.SyncCall(t, h, req, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	if len(resp) < 1 {
		return nil, fmt.Errorf("%w: empty response", ErrRemote)
	}
	return resp, nil
}

// Get fetches a value via the server-side handler.
func (c *RPCClient) Get(t *host.Thread, key uint64, val []byte) error {
	binary.LittleEndian.PutUint64(c.req[:8], key)
	resp, err := c.call(t, HandlerGet, c.req[:8])
	if err != nil {
		return err
	}
	c.d.Stats.Ops++
	c.d.Stats.RPCOps++
	switch resp[0] {
	case stOK:
		copy(val, resp[1:])
		return nil
	case stNotFound:
		return ErrNotFound
	}
	return fmt.Errorf("%w: status %d", ErrRemote, resp[0])
}

// Put stores a value via the server-side handler.
func (c *RPCClient) Put(t *host.Thread, key uint64, val []byte) error {
	lay := c.d.Srv.Lay
	if len(val) > lay.ValSize {
		val = val[:lay.ValSize]
	}
	binary.LittleEndian.PutUint64(c.req[:8], key)
	n := 8 + copy(c.req[8:8+lay.ValSize], val)
	resp, err := c.call(t, HandlerPut, c.req[:n])
	if err != nil {
		return err
	}
	c.d.Stats.Ops++
	c.d.Stats.RPCOps++
	switch resp[0] {
	case stOK:
		return nil
	case stFull:
		return ErrFull
	}
	return fmt.Errorf("%w: status %d", ErrRemote, resp[0])
}
