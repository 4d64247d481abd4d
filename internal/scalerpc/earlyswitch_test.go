package scalerpc

import (
	"testing"

	"scalerpc/internal/sim"
)

// TestEarlySwitchDecision is the early-switch rule as a table. Every "no"
// row but the structural ones is a prototype that ended slices on less
// evidence and lost a workload for it (see the constants' comment in
// scheduler.go); the readings are the shape of that workload's tick on a
// ten-worker server with a 56 Gbit/s port (7 bytes/ns).
func TestEarlySwitchDecision(t *testing.T) {
	const tick = 20 * sim.Microsecond
	// echo_open_256's tick once the backlog is gone: six requests trickle
	// in for the active group while a hundred wait in the warmup pool.
	idle := tickReadings{
		tick: tick, workers: 10, lineRate: 7,
		usefulNs: 6 * 460, txBytes: 6 * 102, rxBytes: 6 * 102,
		served: 6, warmFetched: 100, quietBefore: 1,
		sliceAge: 2 * tick, timeSlice: 100 * sim.Microsecond, switchCost: 19 * sim.Microsecond, groups: 7,
	}
	with := func(f func(*tickReadings)) tickReadings {
		r := idle
		f(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		r    tickReadings
		want bool
	}{
		{"idle with backlog for two ticks", idle, true},
		{"saturated CPU: echo_closed_400's workers sleep most sweeps but do 0.49 of useful work",
			with(func(r *tickReadings) { r.usefulNs = 98_000; r.served = 213; r.warmFetched = 320 }), false},
		{"link at 0.99: bulk_getput_120 has idle cores and a full wire",
			with(func(r *tickReadings) { r.txBytes = 138_600; r.rxBytes = 70_000; r.served = 50; r.warmFetched = 160 }), false},
		{"link at 0.99 inbound",
			with(func(r *tickReadings) { r.rxBytes = 138_600; r.served = 50; r.warmFetched = 160 }), false},
		{"closed-loop batch 1: waiting on round trips, served >= backlog",
			with(func(r *tickReadings) { r.usefulNs = 87 * 460; r.served = 87; r.warmFetched = 40 }), false},
		{"one quiet tick", with(func(r *tickReadings) { r.quietBefore = 0 }), false},
		{"below TimeSlice/4", with(func(r *tickReadings) { r.sliceAge = 24 * sim.Microsecond; r.switchCost = 12 * sim.Microsecond }), false},
		{"at TimeSlice/4", with(func(r *tickReadings) { r.sliceAge = 25 * sim.Microsecond; r.switchCost = 12 * sim.Microsecond }), true},
		{"expensive switch: fig11b's two groups of 70 thrash the QPC cache, NIC-bound behind idle cores and link",
			with(func(r *tickReadings) {
				r.served = 30
				r.warmFetched = 111
				r.sliceAge = 58 * sim.Microsecond
				r.switchCost = 60 * sim.Microsecond
			}), false},
		{"single group", with(func(r *tickReadings) { r.groups = 1 }), false},
		{"SyncGroup member", with(func(r *tickReadings) { r.synced = true }), false},
		{"nothing fetched for the warming group", with(func(r *tickReadings) { r.served = 0; r.warmFetched = 0 }), false},
		{"CPU just under a quarter", with(func(r *tickReadings) { r.usefulNs = 49_999 }), true},
		{"CPU at a quarter", with(func(r *tickReadings) { r.usefulNs = 50_000 }), false},
		{"link at a quarter", with(func(r *tickReadings) { r.txBytes = 35_000 }), false},
	} {
		if got := earlySwitch(tc.r); got != tc.want {
			t.Errorf("%s: earlySwitch = %v, want %v (cpu %.3f, link %.3f)", tc.name, got, tc.want, tc.r.cpuUtil(), tc.r.linkUtil())
		}
	}
}
