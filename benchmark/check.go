package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultFile is what `run` writes and `check` reads.
type resultFile struct {
	Meta      meta               `json:"meta"`
	Workloads []*workloadResult  `json:"workloads"`
	Fidelity  map[string]float64 `json:"fidelity,omitempty"`
}

type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	When       string `json:"when"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// Verdicts of one metric × workload pair.
const (
	vImproved   = "improved"
	vWithin     = "within bound"
	vRegressed  = "REGRESSED"
	vUnresolved = "unresolved"
)

// judge compares cur against base for one metric. worse is the share of the
// base value by which cur is worse (negative: better). A host metric whose
// inter-quartile spread, on either side, exceeds the bound cannot be called
// either way and is unresolved — not unchanged.
func judge(d metricDef, base, cur metricValue) (worse float64, verdict string) {
	delta := cur.Value - base.Value
	if d.Better == "higher" {
		delta = -delta
	}
	if base.Value != 0 {
		worse = delta / math.Abs(base.Value)
	}
	if d.Name == failedFrac.Name { // any increase is a regression
		switch {
		case delta > 0:
			return worse, vRegressed
		case delta < 0:
			return worse, vImproved
		}
		return worse, vWithin
	}
	if math.Max(spread(base.Samples), spread(cur.Samples)) > d.Bound {
		return worse, vUnresolved
	}
	switch {
	case worse > d.Bound && !(d.Name == "setup_s" && delta <= setupAbsFloor):
		return worse, vRegressed
	case worse < -d.Bound:
		return worse, vImproved
	}
	return worse, vWithin
}

// check prints one row per metric × workload pair with both values and
// their ratio, and reports how many pairs regressed.
func check(out io.Writer, a, b *resultFile) (regressed int) {
	fmt.Fprintf(out, "base: commit %s seed %d   new: commit %s seed %d\n", a.Meta.Commit, a.Meta.Seed, b.Meta.Commit, b.Meta.Seed)
	if a.Meta.Seed != b.Meta.Seed {
		fmt.Fprintln(out, "note: seeds differ, so sim_* values differ by seed, not only by commit")
	}
	fmt.Fprintf(out, "%-22s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	defs := append(append([]metricDef(nil), endToEnd...), failedFrac)
	unresolved := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%-22s missing from the new set\n", wa.Name)
			regressed++
			continue
		}
		if wa.SubSeeds != wb.SubSeeds {
			fmt.Fprintf(out, "%-22s note: base pools %d sub-seeds, new %d; sim_* are not comparable\n", wa.Name, wa.SubSeeds, wb.SubSeeds)
		}
		for _, d := range defs {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if d.Name == failedFrac.Name {
				va, vb = metricValue{Value: wa.FailedFrac}, metricValue{Value: wb.FailedFrac}
			}
			_, v := judge(d, va, vb)
			switch v {
			case vRegressed:
				regressed++
			case vUnresolved:
				unresolved++
			}
			rel := "-"
			if va.Value != 0 {
				rel = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			fmt.Fprintf(out, "%-22s %-20s %14.6g %14.6g %9s %6.1f%%  %s\n", wa.Name, d.Name, va.Value, vb.Value, rel, d.Bound*100, v)
		}
	}
	fmt.Fprintf(out, "%d regressed, %d unresolved\n", regressed, unresolved)
	return regressed
}
