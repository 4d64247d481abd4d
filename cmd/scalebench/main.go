// Command scalebench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	scalebench list                 # show experiment ids
//	scalebench run fig8 [fig9 ...]  # run selected experiments
//	scalebench all                  # run everything
//	scalebench rawbench|txbench|mdtest [tool flags]  # one measurement
//
// Flags:
//
//	-quick        shrunken sweeps (CI-sized)
//	-csv DIR      also write <id>.csv files into DIR
//	-seed N       simulation seed (default 1): workloads, and the cluster
//	              RNG (NIC-cache eviction) of every cluster
//	-duration MS  measurement window per data point, in virtual ms
//	-metrics FILE write a full telemetry dump (registry + sampled series +
//	              trace events, per data point) as JSON to FILE
//	-faults FILE  install the fault scenario (JSON, see internal/faults) on
//	              every cluster the experiments build
//	-artifacts DIR write every artifact an experiment emits (e.g. the
//	              loadgen BENCH_loadgen_*.json reports) into DIR
//
// -faults and -metrics reach every cluster: each data point gets its
// cluster from one constructor that applies both.
//
// The three tools take their own flags (`scalebench txbench -h`) and
// none of the ones above.
//
// scalebench runs on one P unless the GOMAXPROCS environment variable is
// set: the simulator switches between its processes as coroutines on one
// thread, so a second P buys nothing (measured on a 2-vCPU VM: level on
// fig8, 5–15 % slower on sub-second experiments).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"scalerpc/internal/bench"
	"scalerpc/internal/faults"
	"scalerpc/internal/sim"
)

func main() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if len(os.Args) > 1 {
		if tool, ok := tools[os.Args[1]]; ok {
			tool(os.Args[2:])
			return
		}
	}

	quick := flag.Bool("quick", false, "shrunken sweeps (CI-sized)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	seed := flag.Uint64("seed", 1, "simulation seed")
	durMS := flag.Float64("duration", 0, "measurement window per point (virtual ms); 0 = default")
	metricsPath := flag.String("metrics", "", "write a per-point telemetry dump (JSON) to this file")
	faultsPath := flag.String("faults", "", "fault scenario (JSON) to install on every experiment cluster")
	artifactsDir := flag.String("artifacts", "", "directory to write experiment artifacts (BENCH_*.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Usage = func() {
		usage()
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}()
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	opts.Seed = *seed
	if *durMS > 0 {
		opts.Duration = sim.Duration(*durMS * float64(sim.Millisecond))
	}
	if *faultsPath != "" {
		sc, err := faults.LoadScenario(*faultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Faults = sc
	}
	if *metricsPath != "" {
		opts.Metrics = &bench.MetricsRecorder{}
		defer func() {
			if err := opts.Metrics.WriteFile(*metricsPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	switch args[0] {
	case "list":
		listExperiments()
		return
	case "all":
		var ids []string
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
		runAll(ids, opts, *csvDir, *artifactsDir)
		return
	case "run":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		runAll(args[1:], opts, *csvDir, *artifactsDir)
		return
	default:
		// Bare experiment ids also work: `scalebench fig8`.
		runAll(args, opts, *csvDir, *artifactsDir)
	}
}

func runAll(ids []string, opts bench.Options, csvDir, artifactsDir string) {
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try `scalebench list`)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		opts.Metrics.Begin(id)
		res := e.Run(opts)
		fmt.Println(res.Render())
		fmt.Printf("(%s wall time: %.1fs)\n\n", id, time.Since(start).Seconds())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if artifactsDir != "" && len(res.Artifacts) > 0 {
			if err := os.MkdirAll(artifactsDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, a := range res.Artifacts {
				path := filepath.Join(artifactsDir, a.Name)
				if err := os.WriteFile(path, a.Data, 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("(artifact: %s)\n", path)
			}
		}
	}
}

func listExperiments() {
	for _, e := range bench.Experiments() {
		fmt.Printf("%-10s %s\n", e.ID, e.Title)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scalebench list
  scalebench run <id> [<id>...]
  scalebench all
  scalebench rawbench|txbench|mdtest [tool flags]
  scalebench [-quick] [-csv DIR] [-seed N] [-duration MS] [-metrics FILE] [-faults FILE] [-artifacts DIR] <id>...
runs on one P (the simulator switches coroutines on one thread; a second P
buys nothing) unless the GOMAXPROCS environment variable is set`)
}
