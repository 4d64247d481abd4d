package bench

import (
	"fmt"

	"scalerpc/internal/chaos"
)

func init() {
	register("chaos", "Seeded chaos matrix: exactly-once, integrity and liveness invariants under faults", runChaos)
}

// runChaos executes the full seeded chaos matrix — every fault class over
// every seed, plus the drop class on the RawWrite baseline — and reports
// the invariant verdicts alongside the reliability counters that show the
// machinery actually fired. The per-run Results (including the generated
// fault schedules) are attached verbatim as BENCH_chaos.json.
func runChaos(opts Options) *Result {
	r := &Result{
		ID: "chaos", Title: "Seeded chaos-invariant matrix (8 clients x 60 calls per run)",
		XLabel: "seed", YLabel: "violations (must be 0)",
	}
	// The acceptance matrix's seeds: a failing artifact row replays
	// exactly as chaos.Run(chaos.Config{Class, Seed, Transport}).
	seeds := chaos.MatrixSeeds
	if opts.Quick {
		seeds = seeds[:2]
	}

	type run struct {
		cfg chaos.Config
	}
	var runs []run
	for _, class := range chaos.Classes() {
		for _, seed := range seeds {
			runs = append(runs, run{chaos.Config{Class: class, Seed: seed}})
		}
	}
	for _, seed := range seeds {
		runs = append(runs, run{chaos.Config{Class: chaos.ClassDrop, Seed: seed, Transport: "RawWrite"}})
	}

	var results []*chaos.Result
	var violations int
	var acked, retries, dedup, crcDrops, mismatches, injectedCorrupt uint64
	tbl := Table{
		Title:  "per-run invariant verdicts and reliability counters",
		Header: []string{"class", "transport", "seed", "acked", "retries", "dedup", "crc_drops", "echo_mism", "violations"},
	}
	for _, ru := range runs {
		res, err := chaos.Run(ru.cfg)
		if err != nil { // the matrix only uses supported (class, transport) pairs
			panic(err)
		}
		results = append(results, res)
		violations += len(res.Violations)
		acked += res.Acked
		retries += res.Retries
		dedup += res.DedupHits
		crcDrops += res.CRCDrops
		mismatches += res.EchoMismatches
		injectedCorrupt += res.Injected.PayloadCorrupts
		r.AddPoint(string(res.Class)+"/"+res.Transport, float64(res.Seed), float64(len(res.Violations)))
		tbl.Rows = append(tbl.Rows, []string{
			res.Class, res.Transport, fmt.Sprintf("%d", res.Seed),
			fmt.Sprintf("%d", res.Acked), fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", res.DedupHits), fmt.Sprintf("%d", res.CRCDrops),
			fmt.Sprintf("%d", res.EchoMismatches), fmt.Sprintf("%d", len(res.Violations)),
		})
	}
	r.Tables = append(r.Tables, tbl)
	r.AddArtifact("BENCH_chaos.json", marshalArtifact(results))
	r.Notef("%d runs, %d invariant violations; %d calls acknowledged", len(results), violations, acked)
	r.Notef("corruption: %d past-ICRC corrupt frames injected, %d frames caught by the wire CRC, %d corrupted payloads delivered (detection must be 100%%)",
		injectedCorrupt, crcDrops, mismatches)
	r.Notef("exactly-once machinery under fire: %d retries, %d duplicate deliveries absorbed by the reply cache", retries, dedup)
	return r
}
