package cluster_test

import (
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

func TestDefaultMatchesPaperTestbed(t *testing.T) {
	cfg := cluster.Default(12)
	if cfg.Hosts != 12 {
		t.Fatalf("Hosts = %d", cfg.Hosts)
	}
	if cfg.Host.Cores != 24 {
		t.Fatalf("Cores = %d (dual 12-core E5-2650 v4)", cfg.Host.Cores)
	}
	if cfg.Host.LLC.SizeBytes != 30<<20 {
		t.Fatalf("LLC = %d, want 30 MB", cfg.Host.LLC.SizeBytes)
	}
	if cfg.Fabric.BandwidthGbps != 56 {
		t.Fatalf("fabric = %g Gbps, want 56 (FDR)", cfg.Fabric.BandwidthGbps)
	}
	if cfg.NIC.UDMTU != 4096 {
		t.Fatalf("UD MTU = %d", cfg.NIC.UDMTU)
	}
}

func TestNewBuildsAttachedHosts(t *testing.T) {
	c := cluster.New(cluster.Default(4))
	defer c.Close()
	if len(c.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(c.Hosts))
	}
	for i, h := range c.Hosts {
		if h.ID != i || h.NIC == nil || h.LLC == nil || h.Bus == nil || h.Mem == nil {
			t.Fatalf("host %d incompletely wired: %+v", i, h)
		}
		if h.NIC.ID() != i {
			t.Fatalf("host %d NIC port = %d", i, h.NIC.ID())
		}
	}
	if c.Fabric.NumPorts() != 4 {
		t.Fatalf("ports = %d", c.Fabric.NumPorts())
	}
}

func TestConnectHelpersProduceWorkingPairs(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	a, b := c.Hosts[0], c.Hosts[1]
	cqA, cqB := a.NIC.CreateCQ(), b.NIC.CreateCQ()
	qa, _ := c.ConnectRC(a, b, cqA, cqA, cqB, cqB)
	src := a.Mem.Register(64, memory.PageSize4K, memory.LocalWrite)
	dst := b.Mem.Register(64, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
	src.WriteAt([]byte("via-helper"), 0)
	a.Spawn("w", func(th *host.Thread) {
		th.PostSend(qa, nic.SendWR{Op: nic.OpWrite,
			LKey: src.LKey, LAddr: src.Base, Len: 10,
			RKey: dst.RKey, RAddr: dst.Base})
	})
	c.Env.RunUntil(sim.Millisecond)
	if string(bytesAt(dst, 0, 10)) != "via-helper" {
		t.Fatalf("dst = %q", bytesAt(dst, 0, 10))
	}

	ua, _ := c.ConnectUC(a, b, cqA, cqA, cqB, cqB)
	if ua.Type != nic.UC {
		t.Fatalf("type = %v", ua.Type)
	}
}

func TestSeedIsolation(t *testing.T) {
	// Different seeds must give different NIC cache randomization streams;
	// same seed must give identical clusters (spot-check via the RNG).
	a := cluster.New(cluster.Default(2))
	defer a.Close()
	b := cluster.New(cluster.Default(2))
	defer b.Close()
	cfg := cluster.Default(2)
	cfg.Seed = 99
	d := cluster.New(cfg)
	defer d.Close()
	x, y, z := a.RNG.Uint64(), b.RNG.Uint64(), d.RNG.Uint64()
	if x != y {
		t.Fatal("same-seed clusters diverge")
	}
	if x == z {
		t.Fatal("different seeds produced identical streams")
	}
}

// bytesAt returns a copy of region r's bytes [off, off+n).
func bytesAt(r *memory.Region, off, n int) []byte {
	b := make([]byte, n)
	r.ReadAt(b, int64(off))
	return b
}
