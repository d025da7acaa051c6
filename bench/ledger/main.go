// Command ledger is the repository's benchmark: four named service
// workloads run against a real pglserve process, seven end-to-end metrics
// from an untraced run, and a traced run that peels the stack layer by
// layer in this process. README.md beside this file names every workload
// and metric and says why it is there.
//
//	bash bench/ledger/run.sh --workload fill_fresh --seed 1 --seconds 20 --trace 0
//	bash bench/ledger/run.sh runset -runs 10 -out A.json
//	bash bench/ledger/run.sh compare A.json B.json
//	bash bench/ledger/run.sh smoke
//	bash bench/ledger/run.sh describe > BENCHMARK.json
//
// A single run prints every metric by name and unit and ends with one JSON
// line {"correct","attempted","failed","metrics"}; it exits non-zero if any
// answer was wrong, any op failed, or any acknowledged write was missing
// after crash recovery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	root := flag.String("root", "../..", "checkout root (the directory holding go.mod and cmd/pglserve)")
	workload := flag.String("workload", "", "workload to run: fill_fresh, read_hot, mixed_rate or log_batch")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Float64("seconds", 20, "nominal measured time of the run, split over three rounds; op counts scale with it")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "also write the run's full report (conditions, counts, metrics) to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1: write every span to this file as JSON")
	flag.Parse()
	abs, err := filepath.Abs(*root)
	if err != nil {
		die(err)
	}
	switch flag.Arg(0) {
	case "compare":
		if flag.NArg() != 3 {
			die(fmt.Errorf("usage: ledger compare A.json B.json"))
		}
		if err := compare(os.Stdout, flag.Arg(1), flag.Arg(2)); err != nil {
			die(err)
		}
	case "runset":
		if err := runset(abs, flag.Args()[1:]); err != nil {
			die(err)
		}
	case "smoke":
		if err := smoke(abs); err != nil {
			die(err)
		}
	case "describe":
		if err := describe(os.Stdout); err != nil {
			die(err)
		}
	case "":
		rep, err := runOne(abs, *workload, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			die(err)
		}
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				die(err)
			}
		}
		printReport(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		die(fmt.Errorf("unknown command %q", flag.Arg(0)))
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// printReport prints the run for a reader and then the contract's result
// line, which must be the last line of standard output.
func printReport(rep *report) {
	c := rep.Conditions
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Printf("conditions nproc=%d gomaxprocs=%d/%d %s commit=%s kernel=%s\n  network: %s\n  nvm: %s\n",
		c.NProc, c.GOMAXPROCS, c.ServerGOMAXPROCS, c.GoVersion, c.Commit, c.Kernel, c.Network, c.NVM)
	fmt.Printf("build_s %.3f (go build ./cmd/pglserve, not part of setup_s)\n", rep.BuildS)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range rep.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  info %-30s %14.6g\n", n, rep.Info[n])
	}
	for _, layer := range peelLayers {
		for kind, us := range rep.Breakdown[layer] {
			fmt.Printf("  peel %-10s %-5s %10.2f us per frame\n", layer, kind, us)
		}
	}
	fmt.Printf("fail_frac %g (failed_ops %d of attempted_ops %d)\n", rep.FailFrac, rep.Failed, rep.Attempted)
	line, _ := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Println(string(line))
}

// runset runs every workload once per seed, untraced (and traced once per
// workload with -trace), and writes the reports as one JSON array: one side
// of a comparison.
func runset(root string, args []string) error {
	fs := flag.NewFlagSet("runset", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload, seeds seed0..seed0+runs-1")
	seed0 := fs.Int64("seed0", 1, "first seed")
	seconds := fs.Float64("seconds", 20, "nominal measured time of each run")
	trace := fs.Bool("trace", false, "also make one traced run per workload, on -trace-seed")
	traceSeed := fs.Int64("trace-seed", 1, "seed of the traced runs: exact counts repeat only on one seed, so both sides of a comparison must share it")
	out := fs.String("out", "", "file to write the reports to (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("runset: -out is required")
	}
	var reps []*report
	// Seeds outermost, so slow drift of the machine spreads over every
	// workload instead of landing on one.
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			rep, err := runOne(root, w.Name, *seed0+int64(i), *seconds, false, "")
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, *seed0+int64(i), err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v ops_per_s=%.0f\n", w.Name, rep.Seed, rep.Correct, rep.Metrics["ops_per_s"].Value)
			reps = append(reps, rep)
		}
	}
	if *trace {
		for _, w := range workloads {
			rep, err := runOne(root, w.Name, *traceSeed, *seconds, true, "")
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.Name, err)
			}
			reps = append(reps, rep)
		}
	}
	if err := writeJSON(*out, reps); err != nil {
		return err
	}
	for _, rep := range reps {
		if !rep.Correct {
			return fmt.Errorf("%s seed %d trace %v: %d of %d ops failed", rep.Workload, rep.Seed, rep.Trace, rep.Failed, rep.Attempted)
		}
	}
	return nil
}

// smoke runs all four workloads untraced at 1/20 of their op counts (three
// rounds of a third of that each), and
// the traced run with its layer peel on one workload per backend (read_hot:
// pangolin, btree, scans; log_batch: logstore, batch frames): enough to
// prove the benchmark builds, runs and checks answers in about 15 s.
func smoke(root string) error {
	traced := map[string]bool{"read_hot": true, "log_batch": true}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && !traced[w.Name] {
				continue
			}
			rep, err := runOne(root, w.Name, 1, 1, trace, "")
			if err != nil {
				return fmt.Errorf("%s trace %v: %w", w.Name, trace, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s trace %v: %d of %d ops failed", w.Name, trace, rep.Failed, rep.Attempted)
			}
			fmt.Printf("smoke %s trace=%v ok: %d ops checked\n", w.Name, trace, rep.Attempted)
		}
	}
	return nil
}

// describe prints BENCHMARK.json as the tables in this package define it.
func describe(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/ledger/run.sh"}, Paths: []string{"bench/ledger"}, RunSeconds: 20}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
