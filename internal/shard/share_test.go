package shard

import (
	"bytes"
	"testing"

	"scalerpc/internal/memory"
	"scalerpc/internal/mica"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

// loadBoth writes a row into its primary and its backup store with one Put
// each: the reference LoadKV's backups must match.
func loadBoth(d *Deployment, key, value []byte) error {
	p := d.Map.PartitionOf(key)
	if _, err := d.Nodes[d.Map.Primary[p]].Store(p).Put(nil, key, value); err != nil {
		return err
	}
	_, err := d.Nodes[d.Map.Backup[p]].Store(p).Put(nil, key, value)
	return err
}

// storeBytes reads the whole of a store's region.
func storeBytes(s *mica.Store) []byte {
	b := make([]byte, s.Region().Len())
	s.Region().ReadAt(b, 0)
	return b
}

// held returns what partition p's store on host h holds of its own,
// counted as the host's Census counts it: what that census loses when the
// store's region is deregistered. The region stays deregistered, so a test
// takes it last; its bytes still read.
func held(d *Deployment, h, p int) memory.Census {
	g, r := d.Cluster.Hosts[h].Mem, d.Nodes[h].Store(p).Region()
	before := g.Census()
	g.Deregister(r)
	after := g.Census()
	return memory.Census{Units: before.Units - after.Units, Tables: before.Tables - after.Tables, Shared: before.Shared - after.Shared}
}

// sameStores fails unless every partition's primary and backup store in d
// holds the bytes and Len of its counterpart in ref.
func sameStores(t *testing.T, when string, d, ref *Deployment) {
	t.Helper()
	for p := 0; p < d.Cfg.Partitions; p++ {
		for _, h := range []int{d.Map.Primary[p], d.Map.Backup[p]} {
			got, want := d.Nodes[h].Store(p), ref.Nodes[h].Store(p)
			if got.Len() != want.Len() || !bytes.Equal(storeBytes(got), storeBytes(want)) {
				t.Fatalf("%s: partition %d's store on host %d (Len %d) differs from the one loaded with two Puts (Len %d)",
					when, p, h, got.Len(), want.Len())
			}
		}
	}
}

// TestBackupsShareTheirPrimaries: LoadKV writes only the primaries, yet
// every backup store then holds exactly what a backup given its own Put of
// each row holds — right after the load, and again after a SmallBank run
// whose replication and commits wrote both sides. The split comes before
// the first simulated event without any store being touched. Right after
// it a backup holds no unit of its own and its primary's units are all
// shared; after the run a backup holds at most the units the run wrote
// (every store write lands in one unit: slots are 128 B at 128 B-aligned
// offsets, and an index entry is 8 B).
func TestBackupsShareTheirPrimaries(t *testing.T) {
	sb := smallbank.Config{Accounts: 2000, InitialBalance: 1000}
	t.Run("load", func(t *testing.T) {
		c, d, _ := buildDeployment(t, 16)
		defer c.Close()
		rc, ref, _ := buildDeployment(t, 16)
		defer rc.Close()
		if err := smallbank.LoadWith(sb, d.LoadKV); err != nil {
			t.Fatal(err)
		}
		if err := smallbank.LoadWith(sb, func(k, v []byte) error { return loadBoth(ref, k, v) }); err != nil {
			t.Fatal(err)
		}
		for _, h := range c.Hosts {
			if cs := h.Mem.Census(); cs.Shared != 0 {
				t.Fatalf("host %d shares %d bytes before any run", h.ID, cs.Shared)
			}
		}
		c.Env.RunUntil(0) // splits every pair before its first event
		for _, h := range d.Cfg.ShardHosts {
			if cs := c.Hosts[h].Mem.Census(); cs.Shared == 0 {
				t.Fatalf("host %d shares nothing after the first RunUntil", h)
			}
		}
		sameStores(t, "after the load", d, ref)
		for p := 0; p < d.Cfg.Partitions; p++ {
			back, prim := held(d, d.Map.Backup[p], p), held(d, d.Map.Primary[p], p)
			if back.Units != 0 || back.Tables != 0 || prim.Units == 0 || prim.Shared != prim.Units {
				t.Fatalf("partition %d right after the load: backup %+v, primary %+v; want a backup of nothing its own and a primary sharing every unit", p, back, prim)
			}
		}
	})
	t.Run("run", func(t *testing.T) {
		gens := map[*memory.Region]uint64{} // at the split
		queued := false
		load := func(d *Deployment, key, value []byte) error {
			err := d.LoadKV(key, value)
			if !queued { // behind the split the first LoadKV queued
				queued = true
				d.Cluster.Env.BeforeRun(func() {
					for p := 0; p < d.Cfg.Partitions; p++ {
						for _, h := range []int{d.Map.Primary[p], d.Map.Backup[p]} {
							r := d.Nodes[h].Store(p).Region()
							gens[r] = r.Gen()
						}
					}
				})
			}
			return err
		}
		run := runSmallBankLoaded(t, false, sim.Millisecond, load)
		defer run.c.Close()
		ref := runSmallBankLoaded(t, false, sim.Millisecond, loadBoth)
		defer ref.c.Close()
		if run.commits != ref.commits {
			t.Fatalf("%d commits, the reference %d: the runs diverged", run.commits, ref.commits)
		}
		d := run.d
		sameStores(t, "after the run", d, ref.d)
		private, wrote := 0, 0
		for p := 0; p < d.Cfg.Partitions; p++ {
			prim := d.Nodes[d.Map.Primary[p]].Store(p).Region()
			back := d.Nodes[d.Map.Backup[p]].Store(p).Region()
			units := held(d, d.Map.Backup[p], p).Units / 256
			writes := int(prim.Gen() - gens[prim] + back.Gen() - gens[back])
			if units > writes {
				t.Errorf("partition %d: the backup holds %d units of its own after %d writes to the pair", p, units, writes)
			}
			private += units
			wrote += writes
		}
		if private == 0 {
			t.Fatal("no backup holds a unit of its own after the run")
		}
		t.Logf("%d commits; the backups hold %d units of their own after %d writes to the stores", run.commits, private, wrote)
	})
}
