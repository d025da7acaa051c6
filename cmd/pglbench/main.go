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
//	fig6    checksum verification policy cost
//	table2  operation-mode matrix
//	table3  per-transaction allocation/modification sizes
//	table4  vulnerability (bytes accessed unverified, normalized)
//	mem     §4.2 storage overheads, pool-init latency, µ-buffer DRAM
//	recover §4.6 error injection, repair latency, canary detection
//	xover   hybrid parity atomic/vectorized crossover sweep (ablation)
//	ext     §3.5 extension: undo logging with parity (Pmemobj-P)
//	scrub   incremental scrub step latency; commit p99 with scrubber on/off
//	all     everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pangolin-go/pangolin/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "paper-scale workloads (1M KV ops; takes much longer)")
	ops := flag.Int("ops", 0, "override per-cell operation count")
	kvops := flag.Int("kvops", 0, "override KV operation count")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pglbench [-full] [-ops N] [-kvops N] {fig3|fig4|fig5|fig6|table2|table3|table4|mem|recover|xover|ext|scrub|all}\n")
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
	w := os.Stdout
	run := func(name string) error {
		switch name {
		case "fig3":
			return bench.Fig3(w, cfg)
		case "fig4":
			return bench.Fig4(w, cfg)
		case "fig5":
			return bench.Fig5(w, cfg)
		case "fig6":
			return bench.Fig6(w, cfg)
		case "table2":
			bench.Table2(w)
			return nil
		case "table3":
			return bench.Table3(w, cfg)
		case "table4":
			return bench.Table4(w, cfg)
		case "mem":
			return bench.Mem(w, cfg)
		case "recover":
			return bench.Recover(w, cfg)
		case "xover":
			return bench.Xover(w, cfg)
		case "ext":
			return bench.Ext(w, cfg)
		case "scrub":
			return bench.Scrub(w, cfg)
		case "all":
			bench.Table2(w)
			for _, f := range []func() error{
				func() error { return bench.Fig3(w, cfg) },
				func() error { return bench.Fig4(w, cfg) },
				func() error { return bench.Fig5(w, cfg) },
				func() error { return bench.Fig6(w, cfg) },
				func() error { return bench.Table3(w, cfg) },
				func() error { return bench.Table4(w, cfg) },
				func() error { return bench.Mem(w, cfg) },
				func() error { return bench.Recover(w, cfg) },
				func() error { return bench.Xover(w, cfg) },
				func() error { return bench.Ext(w, cfg) },
				func() error { return bench.Scrub(w, cfg) },
			} {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "pglbench: %v\n", err)
		os.Exit(1)
	}
}
