// Command mdtest runs an mdtest-style metadata benchmark against a
// simulated Octopus-like metadata server, over either ScaleRPC or the
// self-identified RPC of Octopus.
//
// Example:
//
//	mdtest -rpc scalerpc -clients 120 -op stat -files 1000 -ms 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalerpc/internal/bench"
	"scalerpc/internal/mdtest"
	"scalerpc/internal/sim"
)

func main() {
	rpcName := flag.String("rpc", "scalerpc", "transport: scalerpc | selfrpc")
	clients := flag.Int("clients", 80, "number of clients")
	opName := flag.String("op", "stat", "operation: mknod | rmnod | stat | readdir")
	files := flag.Int("files", 512, "preloaded files per client directory")
	ms := flag.Float64("ms", 4, "measurement window (virtual milliseconds)")
	batch := flag.Int("batch", 1, "requests outstanding per client")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	ops := map[string]mdtest.Op{"mknod": mdtest.Mknod, "rmnod": mdtest.Rmnod, "stat": mdtest.Stat, "readdir": mdtest.Readdir}
	op, ok := ops[strings.ToLower(*opName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *opName)
		os.Exit(2)
	}

	opts := bench.DefaultOptions()
	opts.Seed = *seed
	opts.Duration = sim.Duration(*ms * float64(sim.Millisecond))
	pt, err := bench.MeasureDFS(*rpcName, op, *clients, *files, *batch, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("rpc=%s op=%s clients=%d batch=%d\n", *rpcName, op, *clients, *batch)
	fmt.Printf("completed=%d  throughput=%.1f kops/s\n", pt.Completed, pt.Kops)
	fmt.Printf("server ops: %+v\n", pt.Server)
}
