package bench

import (
	"fmt"

	"scalerpc/internal/chaos"
)

func init() {
	register("grayfail", "Gray-failure matrix: fixed-TTL lease vs adaptive phi-accrual ladder", runGrayFail)
}

// runGrayFail executes every gray-failure schedule class over every seed,
// once under the fixed-TTL lease baseline and once under the adaptive
// phi-accrual detector, and reports the three numbers the ladder is built
// to move: detection latency, false evictions of the slow-but-alive gray
// node, and the victim population's p99 (the bounded-disruption surface).
// All per-run GrayResults are attached verbatim as BENCH_grayfail.json.
func runGrayFail(opts Options) *Result {
	r := &Result{
		ID: "grayfail", Title: "Gray-failure detection: fixed-TTL lease vs adaptive phi-accrual ladder",
		XLabel: "seed", YLabel: "detection latency (us)",
	}
	// The gray matrix's seeds: a failing artifact row replays exactly as
	// chaos.RunGray(chaos.GrayConfig{Class, Seed, Detector}).
	seeds := chaos.GraySeeds
	if opts.Quick {
		seeds = seeds[:2]
	}

	type agg struct {
		runs, falseEv, victimEv, violations int
		detSumNs, detRuns                   int64
		p99MaxNs                            int64
		demotes, readmits                   uint64
	}
	aggs := map[string]*agg{}
	var results []*chaos.GrayResult
	tbl := Table{
		Title: "per-run detection outcome and victim disruption",
		Header: []string{"class", "detector", "seed", "detect_us", "false_ev", "victim_ev",
			"demote/evict/readmit", "victim_acked", "victim_p99_us", "violations"},
	}
	for _, class := range chaos.GrayClasses() {
		for _, det := range []string{"fixed", "adaptive"} {
			for _, seed := range seeds {
				res, err := chaos.RunGray(chaos.GrayConfig{Class: class, Seed: seed, Detector: det})
				if err != nil { // the matrix only uses supported (class, detector) pairs
					panic(err)
				}
				results = append(results, res)
				a := aggs[det]
				if a == nil {
					a = &agg{}
					aggs[det] = a
				}
				a.runs++
				a.falseEv += int(res.FalseEvictions)
				a.victimEv += int(res.VictimEvictions)
				a.violations += len(res.Violations)
				a.demotes += res.Demotions
				a.readmits += res.Readmits
				if res.DetectionNs >= 0 {
					a.detSumNs += res.DetectionNs
					a.detRuns++
				}
				if res.VictimP99Ns > a.p99MaxNs {
					a.p99MaxNs = res.VictimP99Ns
				}
				detUS := float64(-1)
				if res.DetectionNs >= 0 {
					detUS = float64(res.DetectionNs) / 1e3
				}
				r.AddPoint(string(class)+"/"+det, float64(seed), detUS)
				tbl.Rows = append(tbl.Rows, []string{
					string(class), det, fmt.Sprintf("%d", seed), fmt.Sprintf("%.1f", detUS),
					fmt.Sprintf("%d", res.FalseEvictions), fmt.Sprintf("%d", res.VictimEvictions),
					fmt.Sprintf("%d/%d/%d", res.Demotions, res.Evictions, res.Readmits),
					fmt.Sprintf("%d/%d", res.VictimAcked, res.VictimIssued),
					fmt.Sprintf("%.1f", float64(res.VictimP99Ns)/1e3),
					fmt.Sprintf("%d", len(res.Violations)),
				})
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_grayfail.json", marshalArtifact(results))
	for _, det := range []string{"fixed", "adaptive"} {
		a := aggs[det]
		meanDet := float64(-1)
		if a.detRuns > 0 {
			meanDet = float64(a.detSumNs) / float64(a.detRuns) / 1e3
		}
		r.Notef("%s: %d runs, mean detection %.1f us, %d false evictions, %d victim evictions, %d invariant violations, worst victim p99 %.1f us",
			det, a.runs, meanDet, a.falseEv, a.victimEv, a.violations, float64(a.p99MaxNs)/1e3)
	}
	r.Notef("the adaptive ladder demoted %d times and readmitted %d recovered peers; fixed TTL can only evict",
		aggs["adaptive"].demotes, aggs["adaptive"].readmits)
	return r
}
