package mica

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
)

// trio returns a leader, a follower and a reference store of one config,
// each on a host of its own.
func trio(t *testing.T) (leader, follower, ref *Store, c *cluster.Cluster) {
	t.Helper()
	c = cluster.New(cluster.Default(3))
	t.Cleanup(c.Close)
	cfg := Config{Buckets: 1 << 8, Items: 1024, SlotSize: 128}
	return New(c.Hosts[0], cfg), New(c.Hosts[1], cfg), New(c.Hosts[2], cfg), c
}

// regionBytes reads the whole of s's region.
func regionBytes(s *Store) []byte {
	b := make([]byte, s.reg.Len())
	s.reg.ReadAt(b, 0)
	return b
}

// sameStore fails unless got holds exactly what want holds: every region
// byte, the slot state and the counters.
func sameStore(t *testing.T, what string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || got.next != want.next || !slices.Equal(got.freed, want.freed) {
		t.Fatalf("%s: Len %d next %d freed %v, want Len %d next %d freed %v", what, got.Len(), got.next, got.freed, want.Len(), want.next, want.freed)
	}
	if got.Gets != want.Gets || got.Puts != want.Puts || got.Hits != want.Hits {
		t.Fatalf("%s: counters %d/%d/%d, want %d/%d/%d", what, got.Gets, got.Puts, got.Hits, want.Gets, want.Puts, want.Hits)
	}
	if !bytes.Equal(regionBytes(got), regionBytes(want)) {
		t.Fatalf("%s: region bytes differ", what)
	}
}

// TestFollowerMirrorsPreloads: a follower holds, once split, exactly what
// a store given the same Puts holds — bytes, slot state and counters —
// including updates and a preload that fails; it writes no byte of its own
// before the split and none after until a write reaches it; and from then
// on the two stores change independently.
func TestFollowerMirrorsPreloads(t *testing.T) {
	leader, follower, ref, c := trio(t)
	if !follower.Follow(leader) || !follower.Follow(leader) {
		t.Fatal("Follow refused two fresh stores, or the pair it made")
	}
	for i := 0; i < 400; i++ {
		k, v := key(i%300), val(i) // the last 100 update rows
		if _, err := leader.Put(nil, k, v); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Put(nil, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.Put(nil, key(1), make([]byte, 200)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("an oversized preload: %v, want ErrTooBig", err)
	}
	if follower.twin == nil || follower.reg.Gen() != 0 {
		t.Fatal("the pair split, or the follower was written, during preloads")
	}
	sameStore(t, "follower after the split", follower, ref) // Len splits the pair
	if follower.twin != nil || leader.twin != nil {
		t.Fatal("Len did not split the pair")
	}
	if cs := c.Hosts[1].Mem.Census(); cs.Units != 0 { // nothing else on its host is written
		t.Fatalf("the follower's host holds %d unit bytes right after the split, want 0", cs.Units)
	}

	// Diverge: each store's writes stay its own.
	leader.Put(nil, key(5), []byte("leader"))
	follower.Put(nil, key(6), []byte("follower"))
	leader.Delete(nil, key(7))
	follower.Put(nil, []byte("new"), []byte("row"))
	for _, c := range []struct {
		s     *Store
		k     []byte
		want  string
		found bool
	}{
		{leader, key(5), "leader", true}, {follower, key(5), string(val(305)), true},
		{leader, key(6), string(val(306)), true}, {follower, key(6), "follower", true},
		{leader, key(7), "", false}, {follower, key(7), string(val(307)), true},
		{leader, []byte("new"), "", false}, {follower, []byte("new"), "row", true},
	} {
		it, err := c.s.GetValue(nil, c.k, nil)
		if (err == nil) != c.found || c.found && string(it.Value) != c.want {
			t.Errorf("%q: %q, %v; want %q (found %v)", c.k, it.Value, err, c.want, c.found)
		}
	}
	if leader.Len() != 299 || follower.Len() != 301 {
		t.Errorf("Len %d and %d after the writes, want 299 and 301", leader.Len(), follower.Len())
	}
}

// TestFollowSplitsOnAnyOtherCall: every call but a preload, on either
// store, splits the pair before it acts, and the follower then holds the
// preloaded rows.
func TestFollowSplitsOnAnyOtherCall(t *testing.T) {
	calls := map[string]func(leader, follower *Store, th *host.Thread){
		"leader Get":         func(l, f *Store, _ *host.Thread) { l.Get(nil, key(0)) },
		"leader GetValue":    func(l, f *Store, _ *host.Thread) { l.GetValue(nil, key(0), nil) },
		"leader Delete":      func(l, f *Store, _ *host.Thread) { l.Delete(nil, key(0)) },
		"leader TryLock":     func(l, f *Store, _ *host.Thread) { l.TryLock(nil, key(0), 1, nil) },
		"leader Unlock":      func(l, f *Store, _ *host.Thread) { l.Unlock(nil, key(0), 1) },
		"leader CommitWrite": func(l, f *Store, _ *host.Thread) { l.CommitWrite(nil, key(0), []byte("x"), 1) },
		"leader Region":      func(l, f *Store, _ *host.Thread) { l.Region() },
		"leader Len":         func(l, f *Store, _ *host.Thread) { l.Len() },
		"leader Split":       func(l, f *Store, _ *host.Thread) { l.Split() },
		"leader Put, thread": func(l, f *Store, th *host.Thread) { l.Put(th, key(0), []byte("x")) },
		"follower Put":       func(l, f *Store, _ *host.Thread) { f.Put(nil, key(9), []byte("x")) },
		"follower Get":       func(l, f *Store, _ *host.Thread) { f.Get(nil, key(0)) },
		"follower Region":    func(l, f *Store, _ *host.Thread) { f.Region() },
		"follower Split":     func(l, f *Store, _ *host.Thread) { f.Split() },
	}
	for name, call := range calls {
		leader, follower, _, c := trio(t)
		follower.Follow(leader)
		for i := 0; i < 3; i++ {
			leader.Put(nil, key(i), val(i))
		}
		c.Hosts[0].Spawn("caller", func(th *host.Thread) { call(leader, follower, th) })
		c.Env.Run()
		if leader.twin != nil || follower.twin != nil {
			t.Errorf("%s: the pair did not split", name)
			continue
		}
		if it, err := follower.GetValue(nil, key(2), nil); err != nil || !bytes.Equal(it.Value, val(2)) {
			t.Errorf("%s: the follower reads %q, %v for a preloaded row", name, it.Value, err)
		}
	}
}

// TestFollowRefuses: Follow pairs only two unwritten stores of one config
// that are in no other pair.
func TestFollowRefuses(t *testing.T) {
	leader, follower, third, c := trio(t)
	written, _, _, _ := trio(t)
	written.Put(nil, key(0), val(0))
	other := New(c.Hosts[2], Config{Buckets: 1 << 8, Items: 512, SlotSize: 128})
	for _, tc := range []struct {
		name string
		f, l *Store
	}{{"written leader", follower, written}, {"written follower", written, leader}, {"other config", other, leader}, {"itself", leader, leader}} {
		if tc.f.Follow(tc.l) {
			t.Errorf("%s: Follow made a pair", tc.name)
		}
	}
	if !follower.Follow(leader) {
		t.Fatal("Follow refused two fresh stores")
	}
	if third.Follow(leader) || third.Follow(follower) || leader.Follow(follower) {
		t.Error("Follow made a second pair with a store already in one")
	}
}

// TestSplitPanicsOnStrayWrite: a write that reaches either store's region
// other than through a preload while the pair stands panics the split,
// rather than letting the follower miss it or see it.
func TestSplitPanicsOnStrayWrite(t *testing.T) {
	for _, side := range []string{"leader", "follower"} {
		leader, follower, _, _ := trio(t)
		regs := map[string]*Store{"leader": leader, "follower": follower}
		reg := regs[side].Region() // before the pair: no split
		follower.Follow(leader)
		leader.Put(nil, key(0), val(0))
		reg.WriteAt([]byte{1}, int64(reg.Len()-1))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a stray write to the %s's region did not panic the split", side)
				}
			}()
			follower.Len()
		}()
	}
}
