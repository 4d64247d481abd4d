package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scalerpc/internal/bench"
	"scalerpc/internal/mdtest"
	"scalerpc/internal/mica"
	"scalerpc/internal/objstore"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

// tools are single-point measurements with flags of their own, each a thin
// shell over one internal/bench point runner, so a figure and its tool
// cannot drift. They are not experiments: `scalebench list` leaves them
// out. A bad flag value or an unknown name exits 2, a run error exits 1.
var tools = map[string]func(args []string){
	"rawbench": rawbenchTool,
	"txbench":  txbenchTool,
	"mdtest":   mdtestTool,
}

// toolOptions is the default options with the tool's seed and window.
func toolOptions(seed uint64, ms float64) bench.Options {
	opts := bench.DefaultOptions()
	opts.Seed = seed
	opts.Duration = sim.Duration(ms * float64(sim.Millisecond))
	return opts
}

// rawbenchTool measures raw RDMA verb throughput — the microbenchmarks
// behind Figures 1(b), 3(a) and 3(b):
//
//	scalebench rawbench -verb outbound -clients 10,40,150,400,800
//	scalebench rawbench -verb inbound -block 2048 -clients 400
//	scalebench rawbench -verb udsend -clients 100
func rawbenchTool(args []string) {
	fs := flag.NewFlagSet("rawbench", flag.ExitOnError)
	verb := fs.String("verb", "outbound", "outbound | inbound | udsend")
	clientList := fs.String("clients", "10,40,150,400", "comma-separated client counts")
	block := fs.Int("block", 64, "inbound message block size (bytes)")
	ms := fs.Float64("ms", 2, "measurement window (virtual ms)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fs.Parse(args)
	opts := toolOptions(*seed, *ms)

	var counts []int
	for _, s := range strings.Split(*clientList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad client count %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	switch *verb {
	case "outbound":
		fmt.Printf("%-8s  %-12s  %-14s\n", "clients", "Mops/s", "PCIeRd Mev/s")
		for _, n := range counts {
			tput, rd := bench.MeasureOutboundWrite(n, opts)
			fmt.Printf("%-8d  %-12.3f  %-14.3f\n", n, tput, rd)
		}
	case "inbound":
		fmt.Printf("%-8s  %-12s  %-14s  (block=%d)\n", "clients", "Mops/s", "alloc-frac", *block)
		for _, n := range counts {
			tput, frac := bench.MeasureInboundWrite(n, *block, opts)
			fmt.Printf("%-8d  %-12.3f  %-14.3f\n", n, tput, frac)
		}
	case "udsend":
		fmt.Printf("%-8s  %-12s\n", "clients", "Mops/s")
		for _, n := range counts {
			fmt.Printf("%-8d  %-12.3f\n", n, bench.MeasureInboundUDSend(n, opts))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown verb %q\n", *verb)
		os.Exit(2)
	}
}

// txbenchTool runs the ScaleTX distributed-transaction benchmarks (object
// store or SmallBank) on three storage servers, over any of the five
// systems of §4.2.1:
//
//	scalebench txbench -system scaletx -workload smallbank -clients 160 -ms 4
func txbenchTool(args []string) {
	fs := flag.NewFlagSet("txbench", flag.ExitOnError)
	system := fs.String("system", "scaletx", "rawwrite | herd | fasst | scaletx-o | scaletx")
	workload := fs.String("workload", "smallbank", "smallbank | objstore")
	clients := fs.Int("clients", 80, "number of coordinators")
	accounts := fs.Int("accounts", 100_000, "SmallBank accounts")
	keys := fs.Int("keys", 200_000, "object-store keys")
	readSet := fs.Int("r", 3, "object-store read set")
	writeSet := fs.Int("w", 1, "object-store write set")
	ms := fs.Float64("ms", 4, "measurement window (virtual milliseconds)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fs.Parse(args)
	opts := toolOptions(*seed, *ms)

	var w bench.TxnWorkload
	switch strings.ToLower(*workload) {
	case "smallbank":
		cfg := smallbank.DefaultConfig()
		cfg.Accounts = *accounts
		w = bench.SmallBankTxns(cfg, *seed)
	case "objstore":
		w = bench.ObjStoreTxns(objstore.Config{Keys: *keys, ValueSize: 40, ReadSet: *readSet, WriteSet: *writeSet}, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}

	store := mica.Config{Buckets: 1 << 17, Items: 1 << 19, SlotSize: 128}
	pt, err := bench.MeasureTxn(*system, *clients, store, w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("system=%s workload=%s clients=%d\n", *system, *workload, *clients)
	fmt.Printf("committed=%d  throughput=%.3f Mtxns/s\n", pt.Committed, pt.Mtxns)
	fmt.Printf("totals: %s\n", pt.Totals)
}

// mdtestTool runs an mdtest-style metadata benchmark against an
// Octopus-like metadata server, over ScaleRPC or Octopus's self-identified
// RPC:
//
//	scalebench mdtest -rpc scalerpc -clients 120 -op stat -files 1000 -ms 4
func mdtestTool(args []string) {
	fs := flag.NewFlagSet("mdtest", flag.ExitOnError)
	rpcName := fs.String("rpc", "scalerpc", "transport: scalerpc | selfrpc")
	clients := fs.Int("clients", 80, "number of clients")
	opName := fs.String("op", "stat", "operation: mknod | rmnod | stat | readdir")
	files := fs.Int("files", 512, "preloaded files per client directory")
	ms := fs.Float64("ms", 4, "measurement window (virtual milliseconds)")
	batch := fs.Int("batch", 1, "requests outstanding per client")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fs.Parse(args)

	ops := map[string]mdtest.Op{"mknod": mdtest.Mknod, "rmnod": mdtest.Rmnod, "stat": mdtest.Stat, "readdir": mdtest.Readdir}
	op, ok := ops[strings.ToLower(*opName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *opName)
		os.Exit(2)
	}

	pt, err := bench.MeasureDFS(*rpcName, op, *clients, *files, *batch, toolOptions(*seed, *ms))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("rpc=%s op=%s clients=%d batch=%d\n", *rpcName, op, *clients, *batch)
	fmt.Printf("completed=%d  throughput=%.1f kops/s\n", pt.Completed, pt.Kops)
	fmt.Printf("server ops: %+v\n", pt.Server)
}
