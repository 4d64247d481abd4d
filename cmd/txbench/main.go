// Command txbench runs the ScaleTX distributed-transaction benchmarks
// (object store or SmallBank) on a simulated cluster with three storage
// servers, over any of the five systems from §4.2.1.
//
// Example:
//
//	txbench -system scaletx -workload smallbank -clients 160 -ms 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalerpc/internal/bench"
	"scalerpc/internal/mica"
	"scalerpc/internal/objstore"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
)

func main() {
	system := flag.String("system", "scaletx", "rawwrite | herd | fasst | scaletx-o | scaletx")
	workload := flag.String("workload", "smallbank", "smallbank | objstore")
	clients := flag.Int("clients", 80, "number of coordinators")
	accounts := flag.Int("accounts", 100_000, "SmallBank accounts")
	keys := flag.Int("keys", 200_000, "object-store keys")
	readSet := flag.Int("r", 3, "object-store read set")
	writeSet := flag.Int("w", 1, "object-store write set")
	ms := flag.Float64("ms", 4, "measurement window (virtual milliseconds)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	opts := bench.DefaultOptions()
	opts.Seed = *seed
	opts.Duration = sim.Duration(*ms * float64(sim.Millisecond))

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
