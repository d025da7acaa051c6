// Command pglbench regenerates the tables and figures of the paper's
// evaluation (§4) against the simulated NVMM substrate.
//
// Usage:
//
//	pglbench [-full] [-ops N] [-kvops N] <experiment>
//
// Experiments:
//
//	fig3    single-object transaction latency (alloc/overwrite/free)
//	fig4    concurrent overwrite scalability
//	fig5    key-value store insert/remove throughput
//	fig6    checksum verification policy cost, and from the same runs
//	        Table 4's vulnerability (bytes accessed unverified, normalized)
//	table2  operation-mode matrix
//	table3  per-transaction allocation/modification sizes
//	mem     §4.2 storage overheads, pool-init latency, µ-buffer DRAM
//	recover §4.6 error injection, repair latency, canary detection
//	xover   hybrid parity atomic/vectorized crossover sweep (ablation)
//	all     everything above
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/pangolin-go/pangolin/internal/bench"
)

// experiments in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(io.Writer, bench.Config) error
}{
	{"table2", func(w io.Writer, _ bench.Config) error { bench.Table2(w); return nil }},
	{"fig3", bench.Fig3},
	{"fig4", bench.Fig4},
	{"fig5", bench.Fig5},
	{"fig6", bench.Fig6},
	{"table3", bench.Table3},
	{"mem", bench.Mem},
	{"recover", bench.Recover},
	{"xover", bench.Xover},
}

func main() {
	full := flag.Bool("full", false, "paper-scale workloads (1M KV ops; takes much longer)")
	ops := flag.Int("ops", 0, "override per-cell operation count")
	kvops := flag.Int("kvops", 0, "override KV operation count")
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pglbench [-full] [-ops N] [-kvops N] {%s}\n", strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Quick()
	if *full {
		cfg = bench.Full()
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *kvops > 0 {
		cfg.KVOps = *kvops
	}
	name, ran := flag.Arg(0), false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		ran = true
		if err := e.run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pglbench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pglbench: unknown experiment %q\n", name)
		os.Exit(1)
	}
}
