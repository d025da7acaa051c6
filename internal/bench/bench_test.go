package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests. Under -short
// (PR CI, especially the -race job) it shrinks further; every pipeline
// still runs end to end.
func tiny() Config {
	cfg := Config{
		Ops:            20,
		KVOps:          150,
		Threads:        []int{1, 2},
		Sizes:          []uint64{64, 1024},
		ScrubIntervals: []uint64{100},
	}
	if testing.Short() {
		cfg.Ops = 6
		cfg.KVOps = 40
		cfg.Threads = []int{2}
		cfg.Sizes = []uint64{64}
		// Below KVOps, so the Scrub cell's trigger fires.
		cfg.ScrubIntervals = []uint64{20}
	}
	return cfg
}

func TestFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alloc", "overwrite", "free", "Pangolin-MLPC", "Pmemobj-R"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "threads") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestFig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"ctree", "rbtree", "btree", "skiplist", "rtree", "hashmap"} {
		if !strings.Contains(out, s) {
			t.Fatalf("missing %s:\n%s", s, out)
		}
	}
}

// TestFig6AndTable4Smoke runs the policy sweep once and holds the Table 4
// it prints to its shape: in every structure's column the unverified
// share does not grow down the rows, from Pmemobj (1.00) through Pgl-MLPC
// and the Scrub rows to Conservative (0.00).
func TestFig6AndTable4Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fig6, table4, ok := strings.Cut(out, "\nTable 4")
	if !ok || !strings.Contains(fig6, "Conservative") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(table4), "\n")
	rows := lines[3:] // title, header, separator
	if len(rows) != len(policyCells(tiny())) {
		t.Fatalf("%d policy rows:\n%s", len(rows), out)
	}
	prev := make([]float64, len(factories))
	for ri, l := range rows {
		f := strings.Fields(l)
		cells := f[len(f)-len(factories):]
		name := strings.Join(f[:len(f)-len(factories)], " ")
		for ci, c := range cells {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("row %q: %v", name, err)
			}
			switch {
			case ri == 0 && v != 1:
				t.Errorf("%s: %s row reads %.2f, want 1.00", factories[ci].name, name, v)
			case ri == len(rows)-1 && v != 0:
				t.Errorf("%s: %s row reads %.2f, want 0.00", factories[ci].name, name, v)
			case ri > 0 && v > prev[ci]:
				t.Errorf("%s: %s row reads %.2f, above the row before it (%.2f)", factories[ci].name, name, v, prev[ci])
			}
			prev[ci] = v
		}
	}
	if t.Failed() {
		t.Logf("fig6 output:\n%s", out)
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	if !strings.Contains(buf.String(), "Pangolin-MLP") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "insert") || !strings.Contains(out, "remove") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMemSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Mem(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "zone parity") || !strings.Contains(out, "pool init") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRecoverSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Recover(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"media-error page repair", "scribble", "canary", "scrub"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestXoverSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Xover(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Fatalf("output:\n%s", buf.String())
	}
}
