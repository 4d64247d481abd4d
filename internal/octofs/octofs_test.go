package octofs_test

import (
	"encoding/binary"
	"testing"

	"scalerpc/internal/baseline/selfrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mdtest"
	"scalerpc/internal/octofs"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// call issues one synchronous metadata RPC from a client thread.
func call(th *host.Thread, conn rpccore.Conn, sig *sim.Signal, h uint8, path string, id uint64) []byte {
	for !conn.TrySend(th, h, []byte(path), id) {
		conn.Poll(th, func(rpccore.Response) {})
		sig.WaitTimeout(th.P, 10*sim.Microsecond)
	}
	var resp []byte
	for resp == nil {
		conn.Poll(th, func(r rpccore.Response) {
			if r.ReqID == id {
				resp = append([]byte(nil), r.Payload...)
			}
		})
		if resp == nil {
			sig.WaitTimeout(th.P, 10*sim.Microsecond)
		}
	}
	return resp
}

func TestMetadataLifecycleOverScaleRPC(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	mds := octofs.NewMDS(c.Hosts[0], octofs.DefaultConfig())
	cfg := scalerpc.DefaultServerConfig()
	cfg.Workers = 2
	cfg.GroupSize = 8
	srv := scalerpc.NewServer(c.Hosts[0], cfg)
	mds.RegisterHandlers(srv)
	srv.Start()
	sig := sim.NewSignal(c.Env)
	conn := srv.Connect(c.Hosts[1], sig)

	fail := ""
	c.Hosts[1].Spawn("fsclient", func(th *host.Thread) {
		id := uint64(0)
		next := func() uint64 { id++; return id }
		if r := call(th, conn, sig, octofs.HMkdir, "/home", next()); r[0] != octofs.StOK {
			fail = "mkdir failed"
			return
		}
		if r := call(th, conn, sig, octofs.HMknod, "/home/a.txt", next()); r[0] != octofs.StOK {
			fail = "mknod failed"
			return
		}
		// Duplicate create must report Exists.
		if r := call(th, conn, sig, octofs.HMknod, "/home/a.txt", next()); r[0] != octofs.StExists {
			fail = "duplicate mknod not detected"
			return
		}
		if r := call(th, conn, sig, octofs.HStat, "/home/a.txt", next()); r[0] != octofs.StOK || r[1] != 0 {
			fail = "stat file failed"
			return
		}
		if r := call(th, conn, sig, octofs.HStat, "/home", next()); r[0] != octofs.StOK || r[1] != 1 {
			fail = "stat dir failed"
			return
		}
		call(th, conn, sig, octofs.HMknod, "/home/b.txt", next())
		r := call(th, conn, sig, octofs.HReaddir, "/home", next())
		if r[0] != octofs.StOK {
			fail = "readdir failed"
			return
		}
		if n := binary.LittleEndian.Uint32(r[1:]); n != 2 {
			fail = "readdir count wrong"
			return
		}
		// Names come back sorted: a.txt then b.txt.
		if string(r[6:6+5]) != "a.txt" {
			fail = "readdir first entry wrong: " + string(r[6:6+5])
			return
		}
		// Removing a non-empty dir must fail.
		if r := call(th, conn, sig, octofs.HRmnod, "/home", next()); r[0] != octofs.StNotEmpty {
			fail = "rmnod of non-empty dir allowed"
			return
		}
		call(th, conn, sig, octofs.HRmnod, "/home/a.txt", next())
		call(th, conn, sig, octofs.HRmnod, "/home/b.txt", next())
		if r := call(th, conn, sig, octofs.HRmnod, "/home", next()); r[0] != octofs.StOK {
			fail = "rmnod of emptied dir failed"
			return
		}
		if r := call(th, conn, sig, octofs.HStat, "/home/a.txt", next()); r[0] != octofs.StNotFound {
			fail = "stat of removed file succeeded"
			return
		}
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if fail != "" {
		t.Fatal(fail)
	}
	if mds.Len() != 0 {
		t.Fatalf("inode leak: %d live inodes", mds.Len())
	}
}

func TestPreloadAndMdtestPhases(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	mds := octofs.NewMDS(c.Hosts[0], octofs.DefaultConfig())
	if !mds.Preload(4, 100) {
		t.Fatal("preload failed")
	}
	if mds.Len() != 4+400 {
		t.Fatalf("Len = %d", mds.Len())
	}
	srv := selfrpc.NewServer(c.Hosts[0], selfrpc.DefaultServerConfig())
	mds.RegisterHandlers(srv)
	srv.Start()

	horizon := 2 * sim.Millisecond
	results := make([]rpccore.DriverStats, 4)
	ops := []mdtest.Op{mdtest.Stat, mdtest.Readdir, mdtest.Mknod, mdtest.Rmnod}
	for i, op := range ops {
		i, op := i, op
		sig := sim.NewSignal(c.Env)
		conn := srv.Connect(c.Hosts[1], sig)
		w := mdtest.NewWorkload(op, i, 100, uint64(i))
		c.Hosts[1].Spawn("drv", func(th *host.Thread) {
			results[i] = rpccore.RunDriver(th, []rpccore.Conn{conn}, w.DriverConfig(2, uint64(i)),
				sig, func() bool { return th.P.Now() >= horizon })
		})
	}
	c.Env.RunUntil(horizon + sim.Millisecond)
	for i, r := range results {
		if r.Completed == 0 {
			t.Fatalf("phase %v made no progress", ops[i])
		}
	}
	if mds.Stats.Stats == 0 || mds.Stats.Readdirs == 0 || mds.Stats.Mknods == 0 || mds.Stats.Rmnods == 0 {
		t.Fatalf("op counters: %+v", mds.Stats)
	}
}

func TestInodeTableExhaustion(t *testing.T) {
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	mds := octofs.NewMDS(c.Hosts[0], octofs.Config{MaxInodes: 8, LookupCost: 1, UpdateCost: 1})
	if mds.Preload(2, 10) {
		t.Fatal("preload should fail on a full table")
	}
}
