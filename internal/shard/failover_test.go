package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/faults"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// runFailoverScenario stands up a 4-host deployment, crashes partition 0's
// primary mid-run while a client keeps writing and reading, and returns
// the deployment's event log plus the client's last acked value per key.
func runFailoverScenario(t *testing.T, seed uint64) (epochAfter uint32, events []Event, lastAcked map[uint64][]byte, failures int) {
	t.Helper()
	c := cluster.New(cluster.Default(7))
	defer c.Close()

	cfg := DefaultDeployConfig(8, []int{0, 1, 2, 3}, 4, testStoreCfg())
	d := Deploy(c, cfg)
	dead := d.Map.Primary[0]
	c.InstallFaults(&faults.Scenario{
		Name: "shard-failover", Seed: seed,
		Crashes: []faults.Crash{{Node: dead, At: int64(3 * sim.Millisecond)}},
	})

	rcfg := DefaultRouterConfig()
	rcfg.Opts.Timeout = 500 * sim.Microsecond
	rcfg.Opts.MaxRetries = 20

	const keys = 24
	lastAcked = make(map[uint64][]byte)
	finished := false
	ch := c.Hosts[5]
	ch.Spawn("client", func(th *host.Thread) {
		r := d.NewRouter(ch, rcfg)
		kv := r.KVClient(1)
		seq := 0
		for th.P.Now() < 8*sim.Millisecond {
			k := uint64(seq % keys)
			val := []byte(fmt.Sprintf("v-%d-%06d", k, seq))
			if _, ok := kv.Put(th, key8(k), val); ok {
				lastAcked[k] = val
			} else {
				failures++
			}
			seq++
		}
		// Post-failover read check through the router.
		for k := uint64(0); k < keys; k++ {
			want, okWant := lastAcked[k]
			got, found, ok := kv.Get(th, key8(k))
			if !ok {
				t.Errorf("key %d: read failed after failover", k)
				continue
			}
			if okWant && (!found || !bytes.Equal(got, want)) {
				t.Errorf("key %d: got %q found=%v, want acked %q", k, got, found, want)
			}
		}
		finished = true
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if !finished {
		t.Fatal("client never finished (liveness violated)")
	}
	return d.LiveMap().Epoch, append([]Event(nil), d.Director.Events...), lastAcked, failures
}

func TestFailoverServesThroughPromotion(t *testing.T) {
	epoch, events, lastAcked, failures := runFailoverScenario(t, 7)
	if epoch != 2 {
		t.Fatalf("live epoch = %d, want 2 (one failover)", epoch)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds["failover"] != 1 || kinds["promote"] == 0 || kinds["publish"] != 1 {
		t.Fatalf("unexpected event mix: %v", kinds)
	}
	if kinds["push"] == 0 {
		t.Fatalf("no map pushes before publish: %v", kinds)
	}
	// Push-before-publish ordering.
	seenPublish := false
	for _, e := range events {
		if e.Kind == "publish" {
			seenPublish = true
		}
		if e.Kind == "push" && seenPublish {
			t.Fatal("push after publish")
		}
	}
	if len(lastAcked) == 0 {
		t.Fatal("no acked writes")
	}
	if failures == 0 {
		t.Log("note: no client-visible failures (crash window fully absorbed by retries)")
	}
}

// TestFailoverEventLogDeterministic mirrors the ctrlplane churn test: the
// same seed must produce a byte-identical director decision log.
func TestFailoverEventLogDeterministic(t *testing.T) {
	_, ev1, _, _ := runFailoverScenario(t, 21)
	_, ev2, _, _ := runFailoverScenario(t, 21)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event logs differ across identical seeded runs:\n%v\nvs\n%v", ev1, ev2)
	}
}

// TestStaleRouterRedirects pins a router to the pre-failover map (no fetch
// function) and checks that epoch-stale requests to a moved partition are
// redirected/refused in bounded attempts rather than looping.
func TestStaleRouterRedirects(t *testing.T) {
	c := cluster.New(cluster.Default(7))
	defer c.Close()

	cfg := DefaultDeployConfig(8, []int{0, 1, 2, 3}, 4, testStoreCfg())
	d := Deploy(c, cfg)

	finished := false
	ch := c.Hosts[5]
	ch.Spawn("client", func(th *host.Thread) {
		r := d.NewRouter(ch, DefaultRouterConfig())
		kv := r.KVClient(1)
		// Seed one key, then force a failover by feeding the director an
		// artificial expiry: simplest deterministic path is to drive the
		// map forward directly and push it to the nodes, leaving this
		// router stale.
		if _, ok := kv.Put(th, key8(1), []byte("before")); !ok {
			t.Error("seed put failed")
		}

		next := d.LiveMap().Clone()
		next.Epoch++
		// Rotate every partition's primary/backup among live hosts so the
		// stale router's target is wrong for at least some partitions.
		for p := 0; p < next.Partitions; p++ {
			next.Primary[p], next.Backup[p] = next.Backup[p], next.Primary[p]
		}
		for _, n := range d.Nodes {
			n.applyMap(next)
		}
		d.Director.cur = next

		// The router still stamps epoch 1: nodes answer RStale, the router
		// refetches from the director and succeeds against the new owner.
		got, found, ok := kv.Get(th, key8(1))
		if !ok || !found || !bytes.Equal(got, []byte("before")) {
			t.Errorf("stale-epoch read: ok=%v found=%v got=%q", ok, found, got)
		}
		if r.Epoch() != next.Epoch {
			t.Errorf("router epoch = %d, want refreshed %d", r.Epoch(), next.Epoch)
		}
		finished = true
	})
	c.Env.RunUntil(50 * sim.Millisecond)
	if !finished {
		t.Fatal("client never finished")
	}
	if d.Stats.EpochMismatches == 0 {
		t.Fatal("no epoch mismatches counted at nodes")
	}
}

// TestRedirectLoopCapped drives a router with no fetch function and a map
// whose primaries are all wrong: every node keeps naming another owner, and
// the call must fail back in bounded redirects instead of looping forever.
func TestRedirectLoopCapped(t *testing.T) {
	c := cluster.New(cluster.Default(7))
	defer c.Close()

	cfg := DefaultDeployConfig(4, []int{0, 1}, 4, testStoreCfg())
	d := Deploy(c, cfg)

	// A wrong map that disagrees with the nodes: swap primary/backup but
	// keep the node-side maps at the real assignment, and give the router
	// no way to refresh.
	wrong := d.Map.Clone()
	for p := 0; p < wrong.Partitions; p++ {
		if wrong.Backup[p] != NoHost {
			wrong.Primary[p], wrong.Backup[p] = wrong.Backup[p], wrong.Primary[p]
		}
	}
	// Nodes move ahead to epoch 2 with the same (correct) placement, so a
	// request stamped with the wrong map's epoch 1 gets RStale, and the
	// router can never learn better (fetch == nil).
	ahead := d.Map.Clone()
	ahead.Epoch = 2
	for _, n := range d.Nodes {
		n.applyMap(ahead)
	}

	finished := false
	ch := c.Hosts[5]
	sig := sim.NewSignal(c.Env)
	conns := make(map[int]rpccore.Conn)
	for _, hid := range cfg.ShardHosts {
		conns[hid] = d.Servers[hid].Connect(ch, sig)
	}
	ch.Spawn("client", func(th *host.Thread) {
		r := NewRouter(ch, wrong, conns, sig, DefaultRouterConfig(), nil)
		kv := r.KVClient(9)
		_, found, ok := kv.Get(th, key8(5))
		if ok && found {
			t.Error("read unexpectedly succeeded against a permanently stale map")
		}
		finished = true
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if !finished {
		t.Fatal("client never finished — redirect loop not capped")
	}
}

// TestOnlyThePrimaryServes sends every client-facing inner op, stamped at
// the current epoch, to a partition's backup and then to its primary. The
// backup answers each with RWrongShard naming its epoch and the primary,
// and its store is left as it was: a backup applies only the replication
// stream. The primary serves every op.
func TestOnlyThePrimaryServes(t *testing.T) {
	c, d, _ := buildDeployment(t, 8)
	defer c.Close()

	row := key8(0)
	if err := d.LoadKV(row, []byte("loaded")); err != nil {
		t.Fatal(err)
	}
	p := d.Map.PartitionOf(row)
	fresh := key8(1) // a key of p's that no store holds yet
	for i := uint64(2); d.Map.PartitionOf(fresh) != p; i++ {
		fresh = key8(i)
	}
	prim, back := d.Nodes[d.Map.Primary[p]], d.Nodes[d.Map.Backup[p]]

	const txnID = 77
	buf := make([]byte, 256)
	body := func(n int) []byte { return append([]byte(nil), buf[:n]...) }
	kvs := []txn.KV{{Key: row, Value: []byte("changed")}}
	ops := []struct {
		name  string
		inner uint8
		body  []byte
		check func(out []byte) bool // the primary's inner answer
	}{
		{"get", HKVGet, row, func(out []byte) bool { return out[1] == 1 }},
		{"put", HKVPut, body(EncodeKVPut(buf, 5, fresh, []byte("v"))), nil},
		{"exec", txn.HExec, body(txn.EncodeExecReq(buf, txnID, nil, [][]byte{row})),
			func(out []byte) bool { return out[1] == txn.StOK }},
		{"validate", txn.HValidate, body(txn.EncodeKeysReq(buf, txnID, [][]byte{row})), nil},
		{"log", txn.HLog, body(txn.EncodeWriteReq(buf, txnID, kvs)), func(out []byte) bool { return out[1] == 1 }},
		{"commit", txn.HCommit, body(txn.EncodeWriteReq(buf, txnID, kvs)), func(out []byte) bool { return out[1] == 1 }},
		{"unlock", txn.HUnlock, body(txn.EncodeKeysReq(buf, txnID, [][]byte{row})), nil},
	}

	// slot snapshots the row's whole slot (lock word, version, value).
	slot := func(n *Node) []byte {
		st := n.Store(p)
		it, err := st.Get(nil, row)
		if err != nil {
			t.Fatalf("row missing on host %d: %v", n.HostID, err)
		}
		raw := make([]byte, testStoreCfg().SlotSize)
		st.Region().ReadAt(raw, int64(it.Addr-st.Region().Base))
		return raw
	}
	send := func(th *host.Thread, n *Node, inner uint8, body, out []byte) int {
		req := make([]byte, envSize+len(body))
		EncodeEnv(req, n.cur.Epoch, p, inner, body)
		return n.handleShard(th, 1, req, out)
	}

	lenBefore, rowBefore := back.Store(p).Len(), slot(back)
	finished := false
	back.Host.Spawn("to-backup", func(th *host.Thread) {
		for _, op := range ops {
			out := make([]byte, 4096)
			m := send(th, back, op.inner, op.body, out)
			if m != 7 || out[0] != RWrongShard ||
				binary.LittleEndian.Uint32(out[1:]) != back.cur.Epoch ||
				int(binary.LittleEndian.Uint16(out[5:])) != prim.HostID {
				t.Errorf("%s on the backup: answer %v, want RWrongShard at epoch %d naming host %d",
					op.name, out[:m], back.cur.Epoch, prim.HostID)
			}
		}
		if got := back.Store(p).Len(); got != lenBefore {
			t.Errorf("backup store holds %d rows, want %d", got, lenBefore)
		}
		if got := slot(back); !bytes.Equal(got, rowBefore) {
			t.Errorf("backup row changed:\n got %x\nwant %x", got, rowBefore)
		}

		prim.Host.Spawn("to-primary", func(th *host.Thread) {
			for _, op := range ops {
				out := make([]byte, 4096)
				m := send(th, prim, op.inner, op.body, out)
				if m < 1 || out[0] != ROK || (op.check != nil && !op.check(out)) {
					t.Errorf("%s on the primary: answer %v, want ROK", op.name, out[:m])
				}
			}
			finished = true
		})
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if !finished {
		t.Fatal("ops never finished")
	}
	if it, err := prim.Store(p).GetValue(nil, row, nil); err != nil || string(it.Value) != "changed" || it.Version != 2 {
		t.Fatalf("primary row after commit: %+v err=%v, want value \"changed\" at version 2", it, err)
	}
}
