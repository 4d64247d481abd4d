package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

func testStoreCfg() mica.Config {
	return mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
}

func key8(id uint64) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, id)
	return k
}

func TestMapPlacementDeterministicAndBalanced(t *testing.T) {
	hosts := []int{0, 1, 2, 3}
	m1 := NewMap(16, hosts)
	m2 := NewMap(16, hosts)
	perHost := map[int]int{}
	for p := 0; p < 16; p++ {
		if m1.Primary[p] != m2.Primary[p] || m1.Backup[p] != m2.Backup[p] {
			t.Fatalf("placement not deterministic at partition %d", p)
		}
		if m1.Primary[p] == m1.Backup[p] {
			t.Fatalf("partition %d: primary == backup == %d", p, m1.Primary[p])
		}
		perHost[m1.Primary[p]]++
	}
	for _, h := range hosts {
		if perHost[h] == 0 {
			t.Fatalf("host %d owns no partitions: %v", h, perHost)
		}
	}
}

func TestMapCodecRoundTrip(t *testing.T) {
	m := NewMap(8, []int{2, 5, 7})
	m.Failover(5)
	enc := m.Encode()
	got, err := DecodeMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Partitions != m.Partitions {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	for p := 0; p < m.Partitions; p++ {
		if got.Primary[p] != m.Primary[p] || got.Backup[p] != m.Backup[p] {
			t.Fatalf("partition %d mismatch", p)
		}
	}
	if len(got.Down) != 1 || got.Down[0] != 5 {
		t.Fatalf("down set lost: %v", got.Down)
	}
}

func TestMapFailoverPromotesBackups(t *testing.T) {
	m := NewMap(12, []int{0, 1, 2, 3})
	dead := m.Primary[0]
	oldBackup := m.Backup[0]
	promoted := m.Failover(dead)
	if m.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", m.Epoch)
	}
	if len(promoted) == 0 {
		t.Fatal("nothing promoted")
	}
	if m.Primary[0] != oldBackup {
		t.Fatalf("partition 0 primary = %d, want promoted backup %d", m.Primary[0], oldBackup)
	}
	for p := 0; p < m.Partitions; p++ {
		if m.Primary[p] == dead {
			t.Fatalf("partition %d still on dead host", p)
		}
		if m.Backup[p] == dead {
			t.Fatalf("partition %d backup still on dead host", p)
		}
		if m.Backup[p] == m.Primary[p] {
			t.Fatalf("partition %d primary==backup", p)
		}
	}
}

// buildDeployment stands up a 4-shard-host deployment with a director and
// returns it plus a client host.
func buildDeployment(t *testing.T, partitions int) (*cluster.Cluster, *Deployment, *host.Host) {
	return buildDeploymentWith(t, partitions, nil)
}

// buildDeploymentWith is buildDeployment with edit applied to the
// deployment config first (nil leaves it alone). Hosts 5 and 6 are free
// for clients.
func buildDeploymentWith(t *testing.T, partitions int, edit func(*DeployConfig)) (*cluster.Cluster, *Deployment, *host.Host) {
	t.Helper()
	c := cluster.New(cluster.Default(7))
	cfg := DefaultDeployConfig(partitions, []int{0, 1, 2, 3}, 4, testStoreCfg())
	if edit != nil {
		edit(&cfg)
	}
	d := Deploy(c, cfg)
	return c, d, c.Hosts[5]
}

func TestKVPutGetThroughRouter(t *testing.T) {
	c, d, ch := buildDeployment(t, 8)
	defer c.Close()

	done := false
	ch.Spawn("client", func(th *host.Thread) {
		r := d.NewRouter(ch, DefaultRouterConfig())
		kv := r.KVClient(1)
		for i := uint64(0); i < 50; i++ {
			val := []byte(fmt.Sprintf("value-%03d", i))
			if _, ok := kv.Put(th, key8(i), val); !ok {
				t.Errorf("put %d failed", i)
			}
		}
		for i := uint64(0); i < 50; i++ {
			want := []byte(fmt.Sprintf("value-%03d", i))
			got, found, ok := kv.Get(th, key8(i))
			if !ok || !found || !bytes.Equal(got, want) {
				t.Errorf("get %d: found=%v ok=%v got=%q want=%q", i, found, ok, got, want)
			}
		}
		done = true
	})
	c.Env.RunUntil(200 * sim.Millisecond)
	if !done {
		t.Fatal("client did not finish")
	}
	if d.Stats.Routed == 0 {
		t.Fatal("no routed ops counted")
	}
	if d.Stats.ReplForwards == 0 {
		t.Fatal("no replication forwards counted")
	}
	// Every put must be on the backup replica too.
	for i := uint64(0); i < 50; i++ {
		k := key8(i)
		p := d.Map.PartitionOf(k)
		b := d.Map.Backup[p]
		it, err := d.Nodes[b].Store(p).GetValue(nil, k, nil)
		if err != nil {
			t.Fatalf("key %d missing on backup host %d: %v", i, b, err)
		}
		if want := []byte(fmt.Sprintf("value-%03d", i)); !bytes.Equal(it.Value, want) {
			t.Fatalf("backup value mismatch for key %d", i)
		}
	}
}

func TestCrossShardTransactions(t *testing.T) {
	c, d, ch := buildDeployment(t, 8)
	defer c.Close()

	// Load 100 accounts with balance 1000 on primaries and backups.
	const accounts = 100
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct%04d", i)) }
	bal := func(v int64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(v))
		return b
	}
	for i := 0; i < accounts; i++ {
		if err := d.LoadKV(acct(i), bal(1000)); err != nil {
			t.Fatal(err)
		}
	}

	commits := 0
	ch.Spawn("coord", func(th *host.Thread) {
		r := d.NewRouter(ch, DefaultRouterConfig())
		co := d.NewCoordinator(r, 1)
		for i := 0; i < 60; i++ {
			from, to := acct(i%accounts), acct((i*7+13)%accounts)
			if bytes.Equal(from, to) {
				continue
			}
			tx := &txn.Txn{
				Writes: [][]byte{from, to},
				Apply: func(rv, wv [][]byte) [][]byte {
					a := int64(binary.LittleEndian.Uint64(wv[0]))
					b := int64(binary.LittleEndian.Uint64(wv[1]))
					return [][]byte{bal(a - 1), bal(b + 1)}
				},
			}
			for {
				err := co.Run(th, tx)
				if err == nil {
					commits++
					break
				}
				if err != txn.ErrAborted {
					t.Errorf("txn %d: %v", i, err)
					break
				}
				th.P.Sleep(10 * sim.Microsecond)
			}
		}
	})
	c.Env.RunUntil(500 * sim.Millisecond)
	if commits == 0 {
		t.Fatal("no commits")
	}

	// Conservation: total balance unchanged.
	var total int64
	for i := 0; i < accounts; i++ {
		v, err := d.ReadKV(acct(i))
		if err != nil {
			t.Fatalf("account %d: %v", i, err)
		}
		total += int64(binary.LittleEndian.Uint64(v))
	}
	if total != accounts*1000 {
		t.Fatalf("conservation broken: total=%d want %d (commits=%d)", total, accounts*1000, commits)
	}
}

// TestGetReplyStaysInItsBuffer reads a value longer than the reply buffer
// whose backing array runs on past it, as a worker's reply slice runs on
// into its frame's trailer: the answer is cut to the buffer's length and
// nothing past it is written.
func TestGetReplyStaysInItsBuffer(t *testing.T) {
	c, d, _ := buildDeployment(t, 8)
	defer c.Close()
	row, val := key8(0), bytes.Repeat([]byte{'v'}, 40)
	if err := d.LoadKV(row, val); err != nil {
		t.Fatal(err)
	}
	p := d.Map.PartitionOf(row)
	n := d.Nodes[d.Map.Primary[p]]
	req := make([]byte, envSize+len(row))
	EncodeEnv(req, n.cur.Epoch, p, HKVGet, row)
	done := false
	n.Host.Spawn("get", func(th *host.Thread) {
		buf := bytes.Repeat([]byte{0xee}, 64)
		out := buf[:16]
		m := n.handleShard(th, 1, req, out)
		if m != len(out) || out[0] != ROK || out[1] != 1 || !bytes.Equal(out[2:], val[:len(out)-2]) {
			t.Errorf("reply %d bytes %q, want %d bytes: ROK, found, the value's first %d", m, out, len(out), len(out)-2)
		}
		if !bytes.Equal(buf[len(out):], bytes.Repeat([]byte{0xee}, len(buf)-len(out))) {
			t.Errorf("bytes past the reply buffer changed: %x", buf[len(out):])
		}
		done = true
	})
	c.Env.RunUntil(sim.Millisecond)
	if !done {
		t.Fatal("the get never finished")
	}
}
