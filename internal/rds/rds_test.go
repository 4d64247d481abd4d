package rds_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rds"
	"scalerpc/internal/sim"
)

// deployTest builds a cluster and deployment with a small layout.
func deployTest(hosts int, mutate func(*cluster.Config)) (*cluster.Cluster, *rds.Deployment) {
	ccfg := cluster.Default(hosts)
	if mutate != nil {
		mutate(&ccfg)
	}
	c := cluster.New(ccfg)
	d := rds.Deploy(c, rds.Config{
		Layout:     rds.Layout{Buckets: 64, SlotsPerBucket: 4, ValSize: 32},
		ServerWork: 100 * sim.Nanosecond,
	})
	return c, d
}

// fill produces a deterministic value for key k, tagged by writer w.
func fill(val []byte, k uint64, w byte) {
	binary.LittleEndian.PutUint64(val, k)
	for i := 8; i < len(val); i++ {
		val[i] = w
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := rds.Layout{Buckets: 8, SlotsPerBucket: 3, ValSize: 16}
	if l.BucketBytes() != 8+3*24 {
		t.Fatalf("BucketBytes = %d", l.BucketBytes())
	}
	if l.VerOff() != 3*24 {
		t.Fatalf("VerOff = %d", l.VerOff())
	}
	if l.BucketOff(5) != 5*l.BucketBytes() || l.Bytes() != 8*l.BucketBytes() {
		t.Fatalf("BucketOff(5) = %d, Bytes = %d", l.BucketOff(5), l.Bytes())
	}
	// Buckets must scatter: all 8 buckets hit over a small key range.
	seen := map[int]bool{}
	for k := uint64(1); k < 200; k++ {
		seen[l.BucketOf(k)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d/8 buckets hit", len(seen))
	}
}

// TestBackendInterop writes and reads through every pairing of backends:
// all three manipulate the same bytes, so a put through one must be
// visible to a get through any other.
func TestBackendInterop(t *testing.T) {
	c, d := deployTest(3, nil)
	defer c.Close()

	sig := sim.NewSignal(c.Env)
	one := d.NewOneSided(c.Hosts[1])
	rpc := d.NewRPC(c.Hosts[1], sig)
	ada := d.NewAdaptive(c.Hosts[2], sim.NewSignal(c.Env))
	clients := []rds.Client{one, rpc, ada}
	names := []string{"onesided", "rpc", "adaptive"}

	done := false
	c.Hosts[1].Spawn("interop", func(th *host.Thread) {
		val := make([]byte, 32)
		got := make([]byte, 32)
		// Every backend writes its own keys; every backend reads all keys.
		for wi, w := range clients {
			for k := uint64(1); k <= 5; k++ {
				key := uint64(wi*100) + k
				fill(val, key, byte(wi+1))
				if err := w.Put(th, key, val); err != nil {
					t.Errorf("%s put %d: %v", names[wi], key, err)
				}
			}
		}
		for ri, r := range clients {
			for wi := range clients {
				for k := uint64(1); k <= 5; k++ {
					key := uint64(wi*100) + k
					fill(val, key, byte(wi+1))
					if err := r.Get(th, key, got); err != nil {
						t.Errorf("%s get %d: %v", names[ri], key, err)
						continue
					}
					if !bytes.Equal(got, val) {
						t.Errorf("%s get %d: value mismatch", names[ri], key)
					}
				}
			}
			if err := r.Get(th, 9999, got); err != rds.ErrNotFound {
				t.Errorf("%s get missing: %v, want ErrNotFound", names[ri], err)
			}
		}
		done = true
	})
	c.Env.RunUntil(200 * sim.Millisecond)
	if !done {
		t.Fatal("interop thread did not finish")
	}
}

// TestOneSidedOverwriteAndFull exercises slot reuse and bucket overflow.
func TestOneSidedOverwriteAndFull(t *testing.T) {
	ccfg := cluster.Default(2)
	c := cluster.New(ccfg)
	defer c.Close()
	// Single bucket so every key collides.
	d := rds.Deploy(c, rds.Config{
		Layout:     rds.Layout{Buckets: 1, SlotsPerBucket: 2, ValSize: 16},
		ServerWork: 100 * sim.Nanosecond,
	})
	one := d.NewOneSided(c.Hosts[1])
	done := false
	c.Hosts[1].Spawn("full", func(th *host.Thread) {
		val := make([]byte, 16)
		fill(val, 1, 1)
		if err := one.Put(th, 1, val); err != nil {
			t.Errorf("put 1: %v", err)
		}
		if err := one.Put(th, 2, val); err != nil {
			t.Errorf("put 2: %v", err)
		}
		if err := one.Put(th, 3, val); err != rds.ErrFull {
			t.Errorf("put 3: %v, want ErrFull", err)
		}
		// Overwrite key 1 — must reuse its slot, not report full.
		fill(val, 1, 9)
		if err := one.Put(th, 1, val); err != nil {
			t.Errorf("overwrite: %v", err)
		}
		got := make([]byte, 16)
		if err := one.Get(th, 1, got); err != nil || !bytes.Equal(got, val) {
			t.Errorf("get after overwrite: %v", err)
		}
		done = true
	})
	c.Env.RunUntil(50 * sim.Millisecond)
	if !done {
		t.Fatal("thread did not finish")
	}
}

// TestCASContentionConsistency hammers a few hot keys from many one-sided
// writers (several on a remote host, with torn writes enabled) while a
// reader validates every observed value. The seqlock must never expose a
// half-written value: every read is either the fill of some writer or the
// prepopulated pattern, never a blend.
func TestCASContentionConsistency(t *testing.T) {
	c, d := deployTest(3, func(cfg *cluster.Config) {
		cfg.NIC.TornWriteDelay = 300 * sim.Nanosecond
	})
	defer c.Close()
	const writers = 6
	const hotKeys = 2 // few keys → real CAS collisions
	horizon := 20 * sim.Millisecond

	checkVal := func(who string, key uint64, v []byte) {
		k := binary.LittleEndian.Uint64(v)
		if k != key {
			t.Errorf("%s: value for key %d carries key %d (torn?)", who, key, k)
			return
		}
		for i := 9; i < len(v); i++ {
			if v[i] != v[8] {
				t.Errorf("%s: key %d: mixed fill bytes %d vs %d (torn write exposed)",
					who, key, v[8], v[i])
				return
			}
		}
	}

	writes := 0
	for w := 0; w < writers; w++ {
		w := w
		cl := d.NewOneSided(c.Hosts[1+w%2])
		c.Hosts[1+w%2].Spawn(fmt.Sprintf("w%d", w), func(th *host.Thread) {
			val := make([]byte, 32)
			for i := 0; th.P.Now() < horizon; i++ {
				key := uint64(1 + (i+w)%hotKeys)
				fill(val, key, byte(1+(w+i)%250))
				if err := cl.Put(th, key, val); err != nil {
					t.Errorf("w%d put: %v", w, err)
					return
				}
				writes++
			}
		})
	}
	reads := 0
	rd := d.NewOneSided(c.Hosts[2])
	c.Hosts[2].Spawn("reader", func(th *host.Thread) {
		got := make([]byte, 32)
		for i := 0; th.P.Now() < horizon; i++ {
			key := uint64(1 + i%hotKeys)
			err := rd.Get(th, key, got)
			if err == rds.ErrNotFound {
				continue // not yet written
			}
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			checkVal("reader", key, got)
			reads++
		}
	})
	c.Env.RunUntil(horizon + 5*sim.Millisecond)
	if writes < 100 || reads < 100 {
		t.Fatalf("too little traffic: %d writes, %d reads", writes, reads)
	}
	if d.Stats.CASRetries == 0 {
		t.Fatal("hot-key hammering produced no CAS retries — contention not exercised")
	}
	t.Logf("writes=%d reads=%d casRetries=%d tornRetries=%d",
		writes, reads, d.Stats.CASRetries, d.Stats.TornRetries)
}

// TestAdaptiveFallsBackUnderContention drives an adaptive client whose
// one-sided path is made hostile (many one-sided writers hammering the
// same keys) and checks the policy trips to RPC for puts; when the
// aggressors stop, probing must bring the preference back to one-sided.
func TestAdaptiveFallsBackUnderContention(t *testing.T) {
	c := cluster.New(cluster.Default(3))
	defer c.Close()
	// An expensive handler (5 µs of server CPU per op) makes the RPC path
	// the clear loser at quiescence — one-sided's three cheap round trips
	// beat it — while contention still inverts the ranking: CAS-retry
	// storms cost far more than 5 µs.
	d := rds.Deploy(c, rds.Config{
		Layout:     rds.Layout{Buckets: 64, SlotsPerBucket: 4, ValSize: 32},
		ServerWork: 5 * sim.Microsecond,
	})
	const hotKeys = 2
	phase1 := 30 * sim.Millisecond  // contention
	phase2 := 120 * sim.Millisecond // quiescence

	// Aggressors: one-sided writers on host 1 hammering two keys.
	for w := 0; w < 6; w++ {
		w := w
		cl := d.NewOneSided(c.Hosts[1])
		c.Hosts[1].Spawn(fmt.Sprintf("agg%d", w), func(th *host.Thread) {
			val := make([]byte, 32)
			for i := 0; th.P.Now() < phase1; i++ {
				key := uint64(1 + (i+w)%hotKeys)
				fill(val, key, byte(1+w))
				if err := cl.Put(th, key, val); err != nil {
					t.Errorf("agg%d: %v", w, err)
					return
				}
			}
		})
	}

	ada := d.NewAdaptive(c.Hosts[2], sim.NewSignal(c.Env))
	if ada.PreferredPut() != rds.KindOneSided {
		t.Fatalf("cold-start prior for 32-byte values = %v, want onesided", ada.PreferredPut())
	}
	sawRPCDuringStorm := false
	backOneSided := false
	c.Hosts[2].Spawn("ada", func(th *host.Thread) {
		val := make([]byte, 32)
		for i := 0; th.P.Now() < phase1; i++ {
			key := uint64(1 + i%hotKeys)
			fill(val, key, 200)
			if err := ada.Put(th, key, val); err != nil {
				t.Errorf("ada put: %v", err)
				return
			}
			if ada.PreferredPut() == rds.KindRPC {
				sawRPCDuringStorm = true
			}
		}
		for i := 0; th.P.Now() < phase2; i++ {
			key := uint64(1 + i%hotKeys)
			fill(val, key, 201)
			if err := ada.Put(th, key, val); err != nil {
				t.Errorf("ada quiet put: %v", err)
				return
			}
			if ada.PreferredPut() == rds.KindOneSided {
				backOneSided = true
			}
		}
	})
	c.Env.RunUntil(phase2 + 5*sim.Millisecond)
	if !sawRPCDuringStorm {
		t.Fatalf("adaptive never preferred RPC under contention (switches=%d, casRetries=%d)",
			d.Stats.Switches, d.Stats.CASRetries)
	}
	if !backOneSided {
		t.Fatalf("adaptive never returned to one-sided under quiescence (probes=%d)",
			d.Stats.Probes)
	}
	if d.Stats.Switches == 0 {
		t.Fatal("no preference switches recorded")
	}
}

// TestDeterministicStats replays one contended scenario twice and demands
// identical stats — the subsystem inherits the repo's determinism bar.
func TestDeterministicStats(t *testing.T) {
	run := func() rds.Stats {
		c, d := deployTest(3, func(cfg *cluster.Config) {
			cfg.NIC.TornWriteDelay = 300 * sim.Nanosecond
		})
		defer c.Close()
		horizon := 10 * sim.Millisecond
		for w := 0; w < 4; w++ {
			w := w
			cl := d.NewOneSided(c.Hosts[1+w%2])
			c.Hosts[1+w%2].Spawn(fmt.Sprintf("w%d", w), func(th *host.Thread) {
				val := make([]byte, 32)
				for i := 0; th.P.Now() < horizon; i++ {
					key := uint64(1 + (i+w)%3)
					fill(val, key, byte(1+w))
					if err := cl.Put(th, key, val); err != nil {
						t.Errorf("w%d: %v", w, err)
						return
					}
				}
			})
		}
		c.Env.RunUntil(horizon + 2*sim.Millisecond)
		return d.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Ops == 0 || a.CASRetries == 0 {
		t.Fatalf("scenario too tame: %+v", a)
	}
}
