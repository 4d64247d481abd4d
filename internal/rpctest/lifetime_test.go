package rpctest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
)

// poisonConn enforces rpccore.Response.Payload's lifetime contract — "valid
// only during the delivery callback" — from the outside: the moment a
// callback returns, the payload it was shown is overwritten. A caller that
// copied what it needed inside the callback never notices. A transport that
// hands the same bytes to a later delivery (an aliased follower, a buffer
// recycled while still queued) delivers poison, and the case below fails.
type poisonConn struct{ rpccore.Conn }

const poison = 0xA5

func (p poisonConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	return p.Conn.Poll(t, func(r rpccore.Response) {
		fn(r)
		for i := range r.Payload {
			r.Payload[i] = poison
		}
	})
}

// lifetimeCall is one request of the lifetime case and the reply it must
// produce.
type lifetimeCall struct {
	conn    rpccore.Conn
	handler uint8
	req     []byte
	want    []byte
}

// runLifetime keeps the conns' windows full of calls (in order), copies
// each reply inside its callback, and reports the first reply that differs
// from what its call must produce.
func runLifetime(th *host.Thread, sig *sim.Signal, conns []rpccore.Conn, calls []lifetimeCall) string {
	got := make([][]byte, len(calls))
	next, done := 0, 0
	for done < len(calls) {
		for next < len(calls) && calls[next].conn.TrySend(th, calls[next].handler, calls[next].req, uint64(next)) {
			next++
		}
		before := done
		for _, conn := range conns {
			conn.Poll(th, func(r rpccore.Response) {
				if r.ReqID < uint64(len(got)) && got[r.ReqID] == nil && !r.Err {
					got[r.ReqID] = append([]byte{}, r.Payload...)
					done++
				}
			})
		}
		if done == before {
			th.WaitSignal(sig, 5*sim.Microsecond)
		}
	}
	for i, c := range calls {
		if !bytes.Equal(got[i], c.want) {
			return fmt.Sprintf("call %d: reply %x, want %x", i, got[i], c.want)
		}
	}
	return ""
}

func TestPayloadLifetimeEchoTransports(t *testing.T) {
	for _, tr := range transports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := cluster.New(cluster.Default(2))
			defer c.Close()
			connect := tr.build(c, 2, registerEcho)
			sig := sim.NewSignal(c.Env)
			conn := poisonConn{connect(c.Hosts[1], sig)}
			calls := make([]lifetimeCall, 96)
			for i := range calls {
				p := bytes.Repeat([]byte{byte(i + 1)}, 8+i%40)
				calls[i] = lifetimeCall{conn: conn, handler: 1, req: p, want: p}
			}
			fail := "client did not finish"
			c.Hosts[1].Spawn("cli", func(th *host.Thread) {
				fail = runLifetime(th, sig, []rpccore.Conn{conn}, calls)
			})
			runUntil(c, 50*sim.Millisecond, func() bool { return fail != "client did not finish" })
			if fail != "" {
				t.Fatal(fail)
			}
		})
	}
}

// TestPayloadLifetimeRouter runs the case against the shard router's two
// endpoint kinds. The router recycles each call's reply buffer after its
// delivery, and with coalescing on, three endpoints asking for the same key
// at once are served by one wire request: each must still get bytes of its
// own.
func TestPayloadLifetimeRouter(t *testing.T) {
	c := cluster.New(cluster.Default(7))
	defer c.Close()
	store := mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
	d := shard.Deploy(c, shard.DefaultDeployConfig(8, []int{0, 1, 2, 3}, 4, store))
	key := func(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }
	value := func(id uint64) []byte { return bytes.Repeat([]byte{byte(id + 1)}, 8+int(id)%24) }
	for id := uint64(0); id < 64; id++ {
		if err := d.LoadKV(key(id), value(id)); err != nil {
			t.Fatal(err)
		}
	}
	found := func(id uint64) []byte { return append([]byte{1}, value(id)...) }

	ch := c.Hosts[5]
	rcfg := shard.DefaultRouterConfig()
	rcfg.Coalesce = true
	fail := "client did not finish"
	ch.Spawn("cli", func(th *host.Thread) {
		r := d.NewRouter(ch, rcfg)
		var calls []lifetimeCall
		// KV endpoints: every key asked for by all three at once.
		kv := []rpccore.Conn{poisonConn{r.KVConn(1)}, poisonConn{r.KVConn(2)}, poisonConn{r.KVConn(3)}}
		for id := uint64(0); id < 64; id++ {
			for _, conn := range kv {
				calls = append(calls, lifetimeCall{conn: conn, handler: shard.HKVGet, req: key(id), want: found(id)})
			}
		}
		if fail = runLifetime(th, r.Signal(), kv, calls); fail != "" {
			return
		}
		// A partition endpoint: its own keys, pipelined.
		part := poisonConn{r.PartConn(3)}
		calls = calls[:0]
		for id := uint64(0); id < 64; id++ {
			if r.Map().PartitionOf(key(id)) == 3 {
				calls = append(calls, lifetimeCall{conn: part, handler: shard.HKVGet, req: key(id), want: found(id)})
			}
		}
		if len(calls) < 3 {
			fail = "too few keys on partition 3"
			return
		}
		fail = runLifetime(th, r.Signal(), []rpccore.Conn{part}, calls)
	})
	runUntil(c, 200*sim.Millisecond, func() bool { return fail != "client did not finish" })
	if fail != "" {
		t.Fatal(fail)
	}
	if d.Stats.Coalesced == 0 {
		t.Fatal("no read was coalesced: the aliasing case was not exercised")
	}
}
