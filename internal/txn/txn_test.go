package txn_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
	"scalerpc/internal/txn"
)

// testRig is a 3-participant, N-coordinator ScaleTX deployment over the
// RawWrite transport (simplest correct transport; transport-specific
// behaviour is covered by the rpctest conformance suite).
type testRig struct {
	c      *cluster.Cluster
	parts  []*txn.Participant
	coords []*txn.Coordinator
}

func newRig(t *testing.T, nParts, nCoords int, oneSided bool) *testRig {
	t.Helper()
	// Hosts: participants first, then one client host per 8 coordinators.
	clientHosts := (nCoords + 7) / 8
	c := cluster.New(cluster.Default(nParts + clientHosts))
	rig := &testRig{c: c}
	var servers []*rawrpc.Server
	for i := 0; i < nParts; i++ {
		p := txn.NewParticipant(c.Hosts[i], mica.Config{Buckets: 1 << 12, Items: 1 << 14, SlotSize: 128})
		cfg := rawrpc.DefaultServerConfig()
		cfg.Workers = 4
		cfg.MaxClients = 64
		srv := rawrpc.NewServer(c.Hosts[i], cfg)
		p.RegisterHandlers(srv)
		srv.Start()
		rig.parts = append(rig.parts, p)
		servers = append(servers, srv)
	}
	for ci := 0; ci < nCoords; ci++ {
		ch := c.Hosts[nParts+ci/8]
		sig := sim.NewSignal(c.Env)
		var conns []rpccore.Conn
		for _, srv := range servers {
			conns = append(conns, srv.Connect(ch, sig))
		}
		co := txn.NewCoordinator(ch, uint64(ci+1), rig.parts, conns, oneSided, sig)
		rig.coords = append(rig.coords, co)
	}
	t.Cleanup(c.Close)
	return rig
}

// load puts `accounts` keys, each holding a uint64 balance, into the right
// shards.
func (r *testRig) load(accounts int, balance uint64) {
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, balance)
	for i := 0; i < accounts; i++ {
		k := acctKey(i)
		p := r.parts[txn.ShardKey(k, len(r.parts))]
		if _, err := p.Store.Put(nil, k, val); err != nil {
			panic(err)
		}
	}
}

func (r *testRig) totalBalance(accounts int) uint64 {
	var sum uint64
	for i := 0; i < accounts; i++ {
		k := acctKey(i)
		p := r.parts[txn.ShardKey(k, len(r.parts))]
		it, err := p.Store.GetValue(nil, k, nil)
		if err != nil {
			panic(err)
		}
		sum += binary.LittleEndian.Uint64(it.Value)
	}
	return sum
}

func acctKey(i int) []byte { return []byte(fmt.Sprintf("acct%06d", i)) }

// transfer builds a balance-transfer transaction moving amount from a to b.
func transfer(a, b int, amount uint64) *txn.Txn {
	return &txn.Txn{
		Writes: [][]byte{acctKey(a), acctKey(b)},
		Apply: func(readVals, writeVals [][]byte) [][]byte {
			av := binary.LittleEndian.Uint64(writeVals[0])
			bv := binary.LittleEndian.Uint64(writeVals[1])
			out := [][]byte{make([]byte, 8), make([]byte, 8)}
			binary.LittleEndian.PutUint64(out[0], av-amount)
			binary.LittleEndian.PutUint64(out[1], bv+amount)
			return out
		},
	}
}

func TestReadOnlyTxn(t *testing.T) {
	for _, oneSided := range []bool{true, false} {
		name := "scaletx-o"
		if oneSided {
			name = "scaletx"
		}
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, 3, 1, oneSided)
			rig.load(100, 500)
			var got uint64
			done := false
			rig.coords[0].Spawn(func(th *host.Thread, co *txn.Coordinator) {
				tx := &txn.Txn{Reads: [][]byte{acctKey(1), acctKey(2), acctKey(3)}}
				if err := co.Run(th, tx); err != nil {
					t.Errorf("read-only txn: %v", err)
				}
				got = co.Stats.Commits
				done = true
			})
			rig.c.Env.RunUntil(50 * sim.Millisecond)
			if !done || got != 1 {
				t.Fatalf("done=%v commits=%d", done, got)
			}
		})
	}
}

func TestTransferPreservesTotalBalance(t *testing.T) {
	for _, oneSided := range []bool{true, false} {
		name := map[bool]string{true: "scaletx", false: "scaletx-o"}[oneSided]
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, 3, 4, oneSided)
			const accounts = 200
			rig.load(accounts, 1000)
			horizon := 5 * sim.Millisecond
			var committed uint64
			for ci, co := range rig.coords {
				ci, co := ci, co
				co.Spawn(func(th *host.Thread, c *txn.Coordinator) {
					seed := uint64(ci)*2654435761 + 12345
					n, _ := txn.RunLoop(th, c, func() *txn.Txn {
						seed = seed*6364136223846793005 + 1442695040888963407
						a := int(seed>>33) % accounts
						b := (a + 1 + int(seed>>13)%(accounts-1)) % accounts
						return transfer(a, b, 1)
					}, func() bool { return th.P.Now() >= horizon })
					committed += n
				})
			}
			rig.c.Env.RunUntil(horizon + 2*sim.Millisecond)
			if committed < 50 {
				t.Fatalf("committed only %d transfers", committed)
			}
			if got := rig.totalBalance(accounts); got != accounts*1000 {
				t.Fatalf("total balance = %d, want %d (money created/destroyed!)", got, accounts*1000)
			}
			// No locks may remain held.
			for i := 0; i < accounts; i++ {
				k := acctKey(i)
				p := rig.parts[txn.ShardKey(k, len(rig.parts))]
				if _, err := p.Store.TryLock(nil, k, 999999, nil); err != nil {
					t.Fatalf("account %d still locked after run: %v", i, err)
				}
				p.Store.Unlock(nil, k, 999999)
			}
		})
	}
}

func TestLockConflictAborts(t *testing.T) {
	rig := newRig(t, 3, 1, true)
	rig.load(10, 100)
	// Pre-lock an account directly so the coordinator's exec must abort.
	k := acctKey(1)
	p := rig.parts[txn.ShardKey(k, len(rig.parts))]
	p.Store.TryLock(nil, k, 4242, nil)
	var err error
	done := false
	rig.coords[0].Spawn(func(th *host.Thread, co *txn.Coordinator) {
		err = co.Run(th, transfer(1, 2, 5))
		done = true
	})
	rig.c.Env.RunUntil(50 * sim.Millisecond)
	if !done || err != txn.ErrAborted {
		t.Fatalf("done=%v err=%v, want ErrAborted", done, err)
	}
	if rig.coords[0].Stats.LockAborts != 1 {
		t.Fatalf("LockAborts = %d", rig.coords[0].Stats.LockAborts)
	}
	// The other account of the pair must not be left locked.
	k2 := acctKey(2)
	p2 := rig.parts[txn.ShardKey(k2, len(rig.parts))]
	if _, lerr := p2.Store.TryLock(nil, k2, 777, nil); lerr != nil {
		t.Fatalf("partner account left locked: %v", lerr)
	}
}

func TestValidationAbortOnConcurrentWrite(t *testing.T) {
	// A read-set item changed between execution and validation must abort.
	rig := newRig(t, 3, 1, true)
	rig.load(10, 100)
	readKey := acctKey(3)
	p := rig.parts[txn.ShardKey(readKey, len(rig.parts))]

	var err error
	done := false
	// Inject a conflicting write deterministically between the execution
	// and validation phases.
	rig.coords[0].AfterExec = func(t *host.Thread) {
		p.Store.Put(nil, readKey, []byte("CONFLICT"))
	}
	rig.coords[0].Spawn(func(th *host.Thread, co *txn.Coordinator) {
		err = co.Run(th, &txn.Txn{
			Reads:  [][]byte{readKey},
			Writes: [][]byte{acctKey(4)},
			Apply: func(rv, wv [][]byte) [][]byte {
				return [][]byte{[]byte("newval!!")}
			},
		})
		done = true
	})
	rig.c.Env.RunUntil(50 * sim.Millisecond)
	if !done {
		t.Fatal("txn never finished")
	}
	if err != txn.ErrAborted {
		t.Fatalf("err = %v, want ErrAborted (validation must catch the version bump)", err)
	}
	if rig.coords[0].Stats.ValidationAborts != 1 {
		t.Fatalf("ValidationAborts = %d", rig.coords[0].Stats.ValidationAborts)
	}
}

func TestOneSidedCounters(t *testing.T) {
	rig := newRig(t, 3, 1, true)
	rig.load(10, 100)
	rig.coords[0].Spawn(func(th *host.Thread, co *txn.Coordinator) {
		co.Run(th, &txn.Txn{
			Reads:  [][]byte{acctKey(1)},
			Writes: [][]byte{acctKey(2)},
			Apply:  func(rv, wv [][]byte) [][]byte { return [][]byte{[]byte("x")} },
		})
	})
	rig.c.Env.RunUntil(50 * sim.Millisecond)
	st := rig.coords[0].Stats
	if st.OneSidedReads != 1 || st.OneSidedWrites != 1 {
		t.Fatalf("one-sided ops: %+v", st)
	}
	// ScaleTX-O must use none.
	rig2 := newRig(t, 3, 1, false)
	rig2.load(10, 100)
	rig2.coords[0].Spawn(func(th *host.Thread, co *txn.Coordinator) {
		co.Run(th, &txn.Txn{
			Reads:  [][]byte{acctKey(1)},
			Writes: [][]byte{acctKey(2)},
			Apply:  func(rv, wv [][]byte) [][]byte { return [][]byte{[]byte("x")} },
		})
	})
	rig2.c.Env.RunUntil(50 * sim.Millisecond)
	st2 := rig2.coords[0].Stats
	if st2.OneSidedReads != 0 || st2.OneSidedWrites != 0 {
		t.Fatalf("ScaleTX-O used one-sided ops: %+v", st2)
	}
	if st2.Commits != 1 {
		t.Fatalf("ScaleTX-O commits = %d", st2.Commits)
	}
}

func TestShardKeyStable(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := acctKey(i)
		a := txn.ShardKey(k, 3)
		b := txn.ShardKey(k, 3)
		if a != b || a < 0 || a > 2 {
			t.Fatalf("ShardKey unstable or out of range: %d/%d", a, b)
		}
	}
	// Roughly balanced.
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[txn.ShardKey(acctKey(i), 3)]++
	}
	for p, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("shard %d has %d/3000 keys", p, n)
		}
	}
}
