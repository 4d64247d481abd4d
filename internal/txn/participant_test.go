package txn_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// handlers captures a participant's handlers so a test can call them on
// threads of its own.
type handlers map[uint8]rpccore.Handler

func (h handlers) Register(id uint8, fn rpccore.Handler) { h[id] = fn }
func (h handlers) Start()                                {}

// TestExecReplyValueMatchesItsVersion: an exec reply carries each item's
// value as of the version it reports. One thread runs an exec that reads
// K and then locks L; another commits a new value of K, starting at each
// of a sweep of delays, so in some runs the commit lands while the exec is
// still charging its lookups of L. The reply must then hold K's old value
// beside the old version — a value read from the store at reply time would
// pair the new value with the old version.
func TestExecReplyValueMatchesItsVersion(t *testing.T) {
	k, l := []byte("row-K"), []byte("row-L")
	oldVal, newVal := []byte("old-val!"), []byte("new-val!")
	const committer = 77
	var landed int
	for delay := sim.Duration(0); delay < 3000; delay += 20 {
		c := cluster.New(cluster.Default(1))
		h := c.Hosts[0]
		p := txn.NewParticipant(h, mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128})
		for _, key := range [][]byte{k, l} {
			if _, err := p.Store.Put(nil, key, oldVal); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Store.TryLock(nil, k, committer, nil); err != nil {
			t.Fatal(err)
		}
		tab := handlers{}
		p.RegisterHandlers(tab)

		var items []txn.ItemResult
		var current uint64 // K's version in the store when the reply is built
		h.Spawn("exec", func(th *host.Thread) {
			req, out := make([]byte, 256), make([]byte, 256)
			n := txn.EncodeExecReq(req, 5, [][]byte{k}, [][]byte{l})
			m := tab[txn.HExec](th, 0, req[:n], out)
			it, _ := p.Store.Get(nil, k)
			current = it.Version
			st, got, err := txn.DecodeExecResp(nil, out[:m], 2)
			if err != nil || st != txn.StOK {
				t.Errorf("delay %d: exec status %d, %v", delay, st, err)
				return
			}
			items = got
		})
		h.Spawn("commit", func(th *host.Thread) {
			th.P.Sleep(delay)
			req, out := make([]byte, 256), make([]byte, 8)
			n := txn.EncodeWriteReq(req, committer, []txn.KV{{Key: k, Value: newVal}})
			if tab[txn.HCommit](th, 0, req[:n], out) != 1 || out[0] != 1 {
				t.Errorf("delay %d: commit of K failed", delay)
			}
		})
		c.Env.Run()
		c.Close()
		if len(items) != 2 {
			t.Fatalf("delay %d: %d items in the reply, want 2", delay, len(items))
		}
		got := items[0]
		want := map[uint64]string{1: string(oldVal), 2: string(newVal)}[got.Version]
		if string(got.Value) != want {
			t.Fatalf("delay %d: the reply pairs K's version %d with value %q, want %q", delay, got.Version, got.Value, want)
		}
		if got.Version == 1 && current == 2 {
			landed++
		}
	}
	if landed == 0 {
		t.Fatal("no commit landed while the exec was running: the sweep never opened the window")
	}
	t.Logf("%d runs committed K while the exec was running", landed)
}
