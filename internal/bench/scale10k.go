package bench

import (
	"fmt"

	"scalerpc/internal/loadgen"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

func init() {
	register("scale10k", "Fig 9 shape at 10,000 clients: latency distribution at simulator scale", runScale10k)
}

// The paper's Fig 9 measures the latency distribution at 120 clients — the
// largest population its testbed could drive. This experiment replays the
// same shape at populations the hardware could not reach, topping out at
// 10,000 clients on one server. It exists because of the kernel-speed
// refactor: before batched charging, arena pooling and a queue without
// per-event boxing, a 10k-client run did not finish in a CI budget.
//
// The windows are fixed per point (not Options-scaled): at GroupSize 40 /
// TimeSlice 100 µs, N clients form ceil(N/40) groups and a full rotation
// takes groups × 100 µs — 25 ms at 10k clients. The measurement window must
// cover at least one full rotation or some groups are never served inside
// it, and the drain must cover another so in-flight requests land.
func scale10kSweep(quick bool) []int {
	if quick {
		return []int{400, 2000, 10000}
	}
	return []int{400, 1000, 2500, 5000, 10000}
}

const (
	scale10kHosts   = 25
	scale10kOffered = 2_000_000.0 // total open-loop ops/s, shared by the population
)

func runScale10k(opts Options) *Result {
	r := &Result{
		ID: "scale10k", Title: "Latency distribution vs population: Fig 9 extended to 10,000 clients",
		XLabel: "latency (us)", YLabel: "CDF",
	}
	tbl := Table{
		Title:  "population sweep (open-loop, 2 Mops offered total, 32 B echo)",
		Header: []string{"clients", "groups", "rotation(us)", "achieved(Mops)", "completion", "p50(us)", "p99(us)", "p999(us)", "max(us)"},
	}
	var points []loadPoint
	for _, n := range scale10kSweep(opts.Quick) {
		cfg := scalerpc.DefaultServerConfig()
		groups := (n + cfg.GroupSize - 1) / cfg.GroupSize
		rotation := sim.Duration(groups) * cfg.TimeSlice
		// Response latency is rotation-dominated, so clients poll at a
		// granularity scaled to the rotation period (1% of it, min 5 µs):
		// a 10k-client request waits ~12 ms for its group's slice, and
		// polling its response zone every 5 µs all the while is 50× more
		// simulated work for ≤1% better latency resolution.
		poll := rotation / 100
		if poll < 5*sim.Microsecond {
			poll = 5 * sim.Microsecond
		}
		w := loadgen.Workload{
			Name:         fmt.Sprintf("scale@%d", n),
			OfferedRate:  scale10kOffered,
			Arrival:      loadgen.ArrivalPoisson,
			Seed:         opts.Seed,
			PollInterval: poll,
			// ≥1.2 rotations measured so every group is served in-window;
			// drain covers one more rotation so staged requests complete.
			Warmup:   1 * sim.Millisecond,
			Duration: max(6*sim.Millisecond, rotation+rotation/5),
			Drain:    rotation + 2*sim.Millisecond,
			Tenants:  []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32)}},
		}
		rep := runLoad(loadRun{
			transport: "ScaleRPC", clients: n, clientHosts: scale10kHosts,
			w: w,
			tuneScale: func(cfg *scalerpc.ServerConfig) {
				cfg.MaxClients = n + 8
			},
			opts: opts,
		})
		t := rep.Tenants[0]
		completion := 0.0
		if t.Offered > 0 {
			completion = float64(t.Completed) / float64(t.Offered)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(groups), fmt.Sprint(int64(rotation) / 1000),
			trimFloat(rep.AchievedMops), trimFloat(completion),
			trimFloat(t.P50Us), trimFloat(t.P99Us), trimFloat(t.P999Us), trimFloat(t.MaxUs),
		})
		for _, pt := range histCDF(t.LatHist) {
			r.AddPoint(fmt.Sprintf("c%d", n), pt.us, pt.cdf)
		}
		points = append(points, loadPoint{Transport: "ScaleRPC", Rate: float64(n), Report: rep.JSON()})
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_scale10k.json", marshalArtifact(points))
	r.Note("x in the artifact's points is the client count, not an offered rate")
	r.Note("latency is rotation-dominated: ceil(N/40) groups × 100 us per slice puts the p50 near half a rotation (25 ms cycle at 10k clients), the Fig 9 bimodal shape stretched by population")
	r.Note("the paper's Fig 9 stops at 120 clients (testbed limit); this run exists to show the reproduction's kernel sustains 25× that with the same per-group service guarantees")
	return r
}

// histCDF converts a log2 latency histogram ("bit%02d" label → count, see
// loadgen.histBuckets) into CDF points at bucket upper bounds: bucket bit
// holds observations 2^(bit-1) ≤ v < 2^bit nanoseconds.
type cdfPoint struct{ us, cdf float64 }

func histCDF(h map[string]uint64) []cdfPoint {
	var total, cum uint64
	for _, c := range h {
		total += c
	}
	var out []cdfPoint
	for b := 0; b < 64; b++ {
		if c, ok := h[fmt.Sprintf("bit%02d", b)]; ok {
			cum += c
			out = append(out, cdfPoint{us: float64(uint64(1)<<uint(b)) / 1000, cdf: float64(cum) / float64(total)})
		}
	}
	return out
}
