package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles, the ratio of the medians with its base, and a verdict:
//
//	regressed   B's median is worse than A's by more than the metric's bound
//	unchanged   it is not, and both sides' spreads are within the bound
//	unresolved  a side's interquartile spread exceeds the bound, so the
//	            runs cannot tell
//
// and then whether every exact per-layer count is bit-identical between the
// two sides' traced runs, which it can only be asked of runs on one seed. A
// and B are runset files.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadRunset(pathA)
	if err != nil {
		return err
	}
	b, err := loadRunset(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d runs, commit %s)\nB = %s (%d runs, commit %s)\n",
		pathA, len(a), commitOf(a), pathB, len(b), commitOf(b))
	fmt.Fprintf(w, "%-11s %-21s %33s %33s %17s %6s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, d.Name, false), values(b, wl.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := b2/a2 - 1
			if d.Better == "higher" {
				worse = 1 - b2/a2
			}
			verdict := "unchanged"
			switch {
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread A %.3f, B %.3f)", spread(va), spread(vb))
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-11s %-21s %11.5g [%8.5g, %8.5g] %11.5g [%8.5g, %8.5g] %7.4f of %-7.5g %6.2f  %s\n",
				wl.Name, d.Name, a2, a1, a3, b2, b1, b3, b2/a2, a2, d.Bound, verdict)
		}
	}
	for _, wl := range workloads {
		sa, sb := tracedSeed(a, wl.Name), tracedSeed(b, wl.Name)
		if sa < 0 || sb < 0 {
			continue // a side has no traced run of this workload
		}
		if sa != sb {
			fmt.Fprintf(w, "%-11s exact counts not comparable: A traced on seed %d, B on seed %d (they repeat on one seed only)\n", wl.Name, sa, sb)
			continue
		}
		drift := 0
		checked := 0
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			va, vb := values(a, wl.Name, d.Name, true), values(b, wl.Name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			checked++
			if va[0] != vb[0] {
				drift++
				fmt.Fprintf(w, "%-11s %-28s exact count DRIFTED: A %v, B %v\n", wl.Name, d.Name, va[0], vb[0])
			}
		}
		if checked > 0 && drift == 0 {
			fmt.Fprintf(w, "%-11s %d exact counts bit-identical\n", wl.Name, checked)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

func loadRunset(path string) ([]*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(raw, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// tracedSeed is the seed of a runset's traced run of a workload, or -1.
func tracedSeed(reps []*report, workload string) int64 {
	for _, r := range reps {
		if r.Workload == workload && r.Trace {
			return r.Seed
		}
	}
	return -1
}

func commitOf(reps []*report) string {
	if len(reps) == 0 {
		return "?"
	}
	return reps[0].Conditions.Commit
}

// values collects one metric's value over a runset's runs of a workload.
func values(reps []*report, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range reps {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, v.Value)
		}
	}
	return out
}
