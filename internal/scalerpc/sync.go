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
		i := i
		follower := follower
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
				if tsBox.Bytes()[0] != syncReq {
					tsSig.WaitTimeout(t.P, 50*sim.Microsecond)
					continue
				}
				t.ReadMem(tsBox.Base, syncMsgSize)
				t2 := t.P.Now()
				req := tsBox.Bytes()
				t1 := binary.LittleEndian.Uint64(req[1:])
				tsBox.Bytes()[0] = 0
				t.Work(100) // request handling
				t3 := t.P.Now()
				resp := tsScratch.Bytes()
				resp[0] = syncResp
				binary.LittleEndian.PutUint64(resp[1:], t1)
				binary.LittleEndian.PutUint64(resp[9:], uint64(t2))
				binary.LittleEndian.PutUint64(resp[17:], uint64(t3))
				binary.LittleEndian.PutUint64(resp[25:], uint64(t3-t2))
				binary.LittleEndian.PutUint64(resp[33:], uint64(ts.NextSwitchAt()))
				t.WriteMem(tsScratch.Base, syncMsgSize)
				t.PostSend(tsQP, nic.SendWR{
					Op: nic.OpWrite, LKey: tsScratch.LKey, LAddr: tsScratch.Base,
					Len: syncMsgSize, RKey: foBox.RKey, RAddr: foBox.Base, Inline: true,
				})
			}
		})

		// Follower side: periodic sync exchange.
		follower.Host.Spawn("sync-follower", func(t *host.Thread) {
			for {
				t.P.Sleep(follower.Cfg.SyncPeriod)
				t1 := t.P.Now()
				req := foScratch.Bytes()
				req[0] = syncReq
				binary.LittleEndian.PutUint64(req[1:], uint64(t1))
				t.WriteMem(foScratch.Base, syncMsgSize)
				t.PostSend(foQP, nic.SendWR{
					Op: nic.OpWrite, LKey: foScratch.LKey, LAddr: foScratch.Base,
					Len: syncMsgSize, RKey: tsBox.RKey, RAddr: tsBox.Base, Inline: true,
				})
				// Await the response.
				for foBox.Bytes()[0] != syncResp {
					foSig.WaitTimeout(t.P, 50*sim.Microsecond)
				}
				t.ReadMem(foBox.Base, syncMsgSize)
				resp := foBox.Bytes()
				deltaT := sim.Duration(binary.LittleEndian.Uint64(resp[25:]))
				tsPhase := sim.Time(binary.LittleEndian.Uint64(resp[33:]))
				foBox.Bytes()[0] = 0
				t4 := t.P.Now()

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
				follower.AdjustPhase(adj)
				g.LastOffset[i] = adj
				g.Exchanges++
			}
		})
	}
	return g
}
