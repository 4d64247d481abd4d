// Top-level benchmark harness: one testing.B benchmark per table/figure of
// the paper's evaluation (DESIGN.md §3 maps ids to experiments). Each
// benchmark runs the corresponding experiment in Quick mode and reports
// its headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. For the full paper-scale sweeps use
// `go run ./cmd/scalebench all` (see EXPERIMENTS.md for recorded output).
package main

import (
	"testing"

	"scalerpc/internal/bench"
)

// runExperiment executes the experiment once per benchmark iteration and
// reports the mean of its first series' Y values as "headline".
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := bench.QuickOptions()
	var headline float64
	for i := 0; i < b.N; i++ {
		res := e.Run(opts)
		if len(res.Series) > 0 && len(res.Series[0].Y) > 0 {
			sum := 0.0
			for _, y := range res.Series[0].Y {
				sum += y
			}
			headline = sum / float64(len(res.Series[0].Y))
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(headline, "headline")
}

func BenchmarkFig1a(b *testing.B)  { runExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)  { runExperiment(b, "fig1b") }
func BenchmarkFig3a(b *testing.B)  { runExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { runExperiment(b, "fig3b") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B) { runExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { runExperiment(b, "fig11b") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig16a(b *testing.B) { runExperiment(b, "fig16a") }
func BenchmarkFig16b(b *testing.B) { runExperiment(b, "fig16b") }

// BenchmarkSec51UDLargeTransfer covers the §5.1 measurement (UD 4 KB
// chunked transfer vs RC streaming).
func BenchmarkSec51UDLargeTransfer(b *testing.B) { runExperiment(b, "sec51") }

// BenchmarkAblation isolates each ScaleRPC design mechanism.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablate") }

// Open-loop loadgen experiments (internal/loadgen). BenchmarkLoadKnee runs
// two full binary searches at 400 clients — by far the heaviest entry here;
// select it explicitly (-bench=LoadKnee) rather than via -bench=. in CI.
func BenchmarkLoadLat(b *testing.B)    { runExperiment(b, "loadlat") }
func BenchmarkLoadMix(b *testing.B)    { runExperiment(b, "loadmix") }
func BenchmarkLoadFaults(b *testing.B) { runExperiment(b, "loadfaults") }
func BenchmarkLoadKnee(b *testing.B)   { runExperiment(b, "loadknee") }
