// Command benchmark is the repo's two-clock benchmark: five pinned
// workloads, measured end to end on the virtual clock (sim_*) and on the
// wall clock of the machine running the simulator (host_*, setup_s), with
// per-layer counters, layer probes and an outside-in traced run beside
// them. See README.md in this directory.
//
//	benchmark run    [-workload w] [-seed n] [-reps n] [-out dir]
//	benchmark trace  [-workload w] [-seed n] [-reps n] [-out dir]
//	benchmark probes
//	benchmark check A.json B.json
//	benchmark --workload w --seed n --seconds s --trace 0|1   (driver form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	reps     int
	out      string
	seconds  int
	trace    int
}

// The simulator runs one goroutine at a time. With more than one P every
// hand-off between the scheduler and a process may cross OS threads (a futex
// wake, on a VM an IPI), which on the 2-core box this was sized on makes the
// simulator 1.55x slower and its speed twice as noisy rep to rep. The
// benchmark therefore measures at GOMAXPROCS=1, where wall time is CPU time
// and GC work is on the clock instead of on an idle second core.
const benchProcs = 1

func run(args []string) error {
	runtime.GOMAXPROCS(benchProcs)
	cmd := "driver"
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var o options
	fs := flag.NewFlagSet("benchmark "+cmd, flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.reps, "reps", 0, "timed reps per workload (default 6 for run, 2 for trace; fewer than 6 pools fewer sub-seeds and is not comparable)")
	fs.StringVar(&o.out, "out", "benchmark/out", "directory for result JSON, spans and profiles")
	fs.IntVar(&o.seconds, "seconds", 0, "driver form: wall-clock seconds of timed reps")
	fs.IntVar(&o.trace, "trace", 0, "driver form: 0 prints end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch cmd {
	case "run":
		return cmdRun(o, false)
	case "trace":
		return cmdRun(o, true)
	case "probes":
		printLayers(os.Stdout, runProbes())
		return nil
	case "check":
		if fs.NArg() != 2 {
			return fmt.Errorf("check needs two result files")
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return err
		}
		if n := check(os.Stdout, a, b); n > 0 {
			return fmt.Errorf("%d metric x workload pairs regressed", n)
		}
		return nil
	case "driver":
		return cmdDriver(o)
	}
	return fmt.Errorf("unknown command %q (run, trace, probes, check)", cmd)
}

func selected(name string) ([]*workload, error) {
	if name == "" {
		return workloads, nil
	}
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []*workload{w}, nil
}

func newMeta(seed uint64) meta {
	m := meta{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, When: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// cmdRun is `run` and, with traced set, `trace`: the same untraced reps,
// plus one traced rep and the probes.
func cmdRun(o options, traced bool) error {
	ws, err := selected(o.workload)
	if err != nil {
		return err
	}
	reps, file := o.reps, "results.json"
	if traced {
		file = "trace.json"
	}
	if reps <= 0 {
		reps = subSeeds
		if traced {
			reps = driverTraceReps
		}
	}
	rf := resultFile{Meta: newMeta(o.seed)}
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d\n", rf.Meta.Commit, rf.Meta.GoVersion, rf.Meta.NProc, rf.Meta.GOMAXPROCS, o.seed)
	var probes map[string]float64
	if traced {
		probes = runProbes()
	}
	for _, w := range ws {
		res, err := runWorkload(w, o.seed, reps, 0, os.Stdout)
		if err != nil {
			return err
		}
		if traced {
			if err := traceWorkload(w, o.seed, res, o.out); err != nil {
				return err
			}
			for k, v := range probes {
				res.PerLayer[k] = v
			}
		}
		printWorkload(os.Stdout, res)
		rf.Workloads = append(rf.Workloads, res)
	}
	// Cross-workload fidelity note: the paper's claim is that RawWrite
	// collapses at 400 clients while ScaleRPC stays flat (Fig 8;
	// EXPERIMENTS.md has the repo's own fig8 numbers).
	by := map[string]*workloadResult{}
	for _, r := range rf.Workloads {
		by[r.Name] = r
	}
	if a, b := by["echo_closed_400"], by["rawwrite_closed_400"]; a != nil && b != nil {
		f := a.EndToEnd["sim_mops"].Value / b.EndToEnd["sim_mops"].Value
		rf.Fidelity = map[string]float64{"fidelity.scalerpc_over_rawwrite_400": f}
		fmt.Printf("\nfidelity.scalerpc_over_rawwrite_400 = %.3f (paper Fig 8: RawWrite collapses past ~40 clients, ScaleRPC flat to 400; a ratio near 1 would mean the model lost the collapse)\n", f)
	}
	for _, r := range rf.Workloads {
		if r.Failed > 0 {
			err = fmt.Errorf("%s: %d of %d ops failed", r.Name, r.Failed, r.Attempted)
		}
	}
	if werr := writeJSON(filepath.Join(o.out, file), rf); werr != nil {
		return werr
	}
	fmt.Printf("wrote %s\n", filepath.Join(o.out, file))
	return err
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverTraceReps is how many untraced timed reps precede the traced rep in
// the driver's --trace 1 form.
const driverTraceReps = 2

// cmdDriver is the form the acceptance driver calls: one workload, a
// wall-clock budget, and as the last line of stdout one JSON object with the
// end-to-end metrics (--trace 0) or every per-layer metric (--trace 1).
// Progress goes to stderr.
func cmdDriver(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("driver form needs --workload, one of the five; got %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("driver form needs --seconds")
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	var res *workloadResult
	var err error
	if o.trace == 0 {
		if res, err = runWorkload(w, o.seed, 0, time.Duration(o.seconds)*time.Second, os.Stderr); err != nil {
			return err
		}
		for _, d := range endToEnd {
			metrics[d.Name] = jsonMetric{res.EndToEnd[d.Name].Value, d.Unit}
		}
	} else {
		if res, err = runWorkload(w, o.seed, driverTraceReps, 0, os.Stderr); err != nil {
			return err
		}
		if err = traceWorkload(w, o.seed, res, o.out); err != nil {
			return err
		}
		for k, v := range runProbes() {
			res.PerLayer[k] = v
		}
		// A metric that does not apply to this workload reads 0.
		for _, d := range perLayer {
			metrics[d.Name] = jsonMetric{res.PerLayer[d.Name], d.Unit}
		}
	}
	printWorkload(os.Stderr, res)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
