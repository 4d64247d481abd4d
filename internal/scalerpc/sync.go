package scalerpc

import (
	"encoding/binary"

	"scalerpc/internal/host"
	"scalerpc/internal/memory"
	"scalerpc/internal/nic"
	"scalerpc/internal/sim"
)

// Global synchronization (§4.2, Figure 14). When clients talk to several
// RPCServers at once (as in ScaleTX), independent schedulers would leave a
// client in PROCESS on one server but WARMUP on another, stalling it.
// The servers therefore run an NTP-like exchange: one is the predefined
// time server; the others (followers) periodically send sync requests,
// measure T1/T4 locally while the time server stamps T2/T3, and adjust
// the sleep before their next context switch by
//
//	D_i = D − (T4 − T1 − ΔT)/2,   ΔT = T3 − T2
//
// so every server switches groups at the same pace and phase.

// syncMsg layout: kind(1) | T1(8) | T2(8) | T3(8) | deltaT(8) | phase(8).
const syncMsgSize = 1 + 5*8

const (
	syncReq  = 1
	syncResp = 2
)

// SyncGroup couples a set of ScaleRPC servers so their schedulers switch
// in phase. Servers[0] is the time server (chosen by configuration
// scripts, per the paper).
type SyncGroup struct {
	Servers []*Server
	// Exchanges counts completed sync rounds (per follower).
	Exchanges uint64
	// LastOffset records each follower's most recent phase correction.
	LastOffset []sim.Duration
}

// NewSyncGroup wires the servers' sync endpoints together and starts the
// exchange processes. Call before the cluster runs.
func NewSyncGroup(servers []*Server) *SyncGroup {
	g := &SyncGroup{Servers: servers, LastOffset: make([]sim.Duration, len(servers))}
	if len(servers) < 2 {
		return g
	}
	for _, srv := range servers {
		srv.synced = true
	}
	ts := servers[0]
	for i, follower := range servers[1:] {
		// A dedicated RC QP pair and mailbox regions per follower.
		tsQP, foQP := ts.dialRC(follower.Host)
		tsBox := ts.Host.Mem.Register(syncMsgSize, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
		foBox := follower.Host.Mem.Register(syncMsgSize, memory.PageSize4K, memory.LocalWrite|memory.RemoteWrite)
		tsScratch := ts.Host.Mem.Register(syncMsgSize, memory.PageSize4K, memory.LocalWrite)
		foScratch := follower.Host.Mem.Register(syncMsgSize, memory.PageSize4K, memory.LocalWrite)

		tsSig := sim.NewSignal(ts.Host.Env)
		foSig := sim.NewSignal(follower.Host.Env)
		ts.Host.NIC.WatchRegion(tsBox.RKey, tsSig)
		follower.Host.NIC.WatchRegion(foBox.RKey, foSig)

		// Time-server side: answer sync requests with T2/T3/ΔT and its
		// scheduler phase.
		ts.Host.Spawn("sync-ts", func(t *host.Thread) {
			for {
				var req, resp [syncMsgSize]byte
				syncRecv(t, tsBox, tsSig, syncReq, req[:])
				t2 := t.P.Now()
				t1 := binary.LittleEndian.Uint64(req[1:])
				t.Work(100) // request handling
				t3 := t.P.Now()
				resp[0] = syncResp
				binary.LittleEndian.PutUint64(resp[1:], t1)
				binary.LittleEndian.PutUint64(resp[9:], uint64(t2))
				binary.LittleEndian.PutUint64(resp[17:], uint64(t3))
				binary.LittleEndian.PutUint64(resp[25:], uint64(t3-t2))
				binary.LittleEndian.PutUint64(resp[33:], uint64(ts.NextSwitchAt()))
				syncSend(t, tsQP, tsScratch, foBox, resp[:])
			}
		})

		// Follower side: periodic sync exchange.
		follower.Host.Spawn("sync-follower", func(t *host.Thread) {
			for {
				t.P.Sleep(follower.Cfg.SyncPeriod)
				t1 := t.P.Now()
				var req, resp [syncMsgSize]byte
				req[0] = syncReq
				binary.LittleEndian.PutUint64(req[1:], uint64(t1))
				syncSend(t, foQP, foScratch, tsBox, req[:])
				syncRecv(t, foBox, foSig, syncResp, resp[:])
				t4 := t.P.Now()
				deltaT := sim.Duration(binary.LittleEndian.Uint64(resp[25:]))
				tsPhase := sim.Time(binary.LittleEndian.Uint64(resp[33:]))

				// D_i = D − (T4 − T1 − ΔT)/2: shorten the next slice by the
				// one-way delay estimate, then align phases modulo the
				// slice length using the time server's advertised phase.
				oneWay := (t4 - t1 - deltaT) / 2
				slice := follower.Cfg.TimeSlice
				phaseErr := (tsPhase - follower.NextSwitchAt()) % slice
				if phaseErr > slice/2 {
					phaseErr -= slice
				}
				if phaseErr < -slice/2 {
					phaseErr += slice
				}
				adj := phaseErr - oneWay
				follower.phaseAdjust += adj
				g.LastOffset[i] = adj
				g.Exchanges++
			}
		})
	}
	return g
}

// syncSend writes msg into the scratch region from and RDMA-writes it, inline,
// into the peer's mailbox to.
func syncSend(t *host.Thread, qp *nic.QP, from, to *memory.Region, msg []byte) {
	_, _ = from.WriteAt(msg, 0) // every access here is inside a box or scratch
	t.WriteMem(from.Base, syncMsgSize)
	t.PostSend(qp, nic.SendWR{
		Op: nic.OpWrite, LKey: from.LKey, LAddr: from.Base,
		Len: syncMsgSize, RKey: to.RKey, RAddr: to.Base, Inline: true,
	})
}

// syncRecv waits for a message of kind in box, copies it into msg and
// clears the box for the next one.
func syncRecv(t *host.Thread, box *memory.Region, sig *sim.Signal, kind byte, msg []byte) {
	for box.ByteAt(0) != kind {
		sig.WaitTimeout(t.P, 50*sim.Microsecond)
	}
	t.ReadMem(box.Base, syncMsgSize)
	_, _ = box.ReadAt(msg, 0)
	_, _ = box.WriteAt([]byte{0}, 0)
}
