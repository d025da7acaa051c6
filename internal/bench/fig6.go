package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/pangolin-go/pangolin"
)

// policyCell describes one verification policy column of Figure 6 /
// Table 4.
type policyCell struct {
	name       string
	mode       pangolin.Mode
	policy     pangolin.VerifyPolicy
	scrubEvery uint64 // scaled at run time for quick configs
}

func policyCells(cfg Config) []policyCell {
	cells := []policyCell{
		{name: "Pmemobj", mode: pangolin.ModePmemobj},
		{name: "Pgl-MLPC", mode: pangolin.ModePangolinMLPC},
	}
	for _, iv := range cfg.ScrubIntervals {
		cells = append(cells, policyCell{
			name:       fmt.Sprintf("Scrub %d", iv),
			mode:       pangolin.ModePangolinMLPC,
			scrubEvery: iv,
		})
	}
	cells = append(cells, policyCell{
		name:   "Conservative",
		mode:   pangolin.ModePangolinMLPC,
		policy: pangolin.VerifyConservative,
	})
	return cells
}

// Fig6 reproduces Figure 6: insert throughput under the checksum
// verification policies (§3.3). The MLPC column already verifies each
// object on its first read after a modification, so Conservative adds
// only the re-verification of objects no commit touched since: nearly
// free for small-object structures (ctree, rbtree, hashmap), expensive
// for large-object ones (btree, skiplist, rtree). Scrub modes sit between
// MLPC and Conservative, trading throughput for bounded vulnerability.
func Fig6(w io.Writer, cfg Config) error {
	cells := policyCells(cfg)
	t := &Table{Header: append([]string{"structure"}, cellNames(cells)...)}
	for _, f := range Factories {
		n := min(cfg.KVOps, f.opCap)
		row := []string{f.name}
		for _, c := range cells {
			kops, _, err := fig6Cell(f, c, n)
			if err != nil {
				return fmt.Errorf("fig6 %s %s: %w", f.name, c.name, err)
			}
			row = append(row, kops)
		}
		t.Add(row...)
	}
	fmt.Fprintf(w, "\nFigure 6 — insert throughput under verification policies (Kops/s), %d ops\n", cfg.KVOps)
	t.Print(w)
	return nil
}

func cellNames(cells []policyCell) []string {
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	return names
}

// fig6Cell runs inserts under one policy and also returns the unverified
// object bytes (Table 4's vulnerability measure).
func fig6Cell(f kvFactory, c policyCell, n int) (string, uint64, error) {
	pool, err := kvPool(f, c.mode, n, c.policy, c.scrubEvery)
	if err != nil {
		return "", 0, err
	}
	defer pool.Close()
	m, err := f.make(pool, n)
	if err != nil {
		return "", 0, err
	}
	keys := kvKeys(n)
	pool.Stats().ResetAccounting()
	start := time.Now()
	for _, k := range keys {
		if err := m.Insert(k, k); err != nil {
			return "", 0, err
		}
	}
	d := time.Since(start)
	unverified := pool.Stats().UnverifiedBytes.Load()
	if c.scrubEvery > 0 {
		// Table 4 counts the window between two scrub passes, not the
		// whole run.
		txs := pool.Stats().TxCount.Load()
		if txs > c.scrubEvery {
			unverified = unverified * c.scrubEvery / txs
		}
	}
	return fmtKops(n, d), unverified, nil
}

// Table4 reproduces Table 4: object bytes accessed without checksum
// verification, normalized to Pmemobj (which verifies nothing). Shape
// targets, non-increasing down every column: Pmemobj 1.0; MLPC below it,
// counting only reads of objects already verified since their last
// modification (micro-buffer opens and the first read after each commit
// verify); scrub modes lower again (window-bounded); Conservative 0.
func Table4(w io.Writer, cfg Config) error {
	cells := policyCells(cfg)
	t := &Table{Header: append([]string{"policy"}, factoryNames()...)}
	base := make([]uint64, len(Factories))
	rows := make([][]uint64, len(cells))
	for ci, c := range cells {
		rows[ci] = make([]uint64, len(Factories))
		for fi, f := range Factories {
			n := min(cfg.KVOps, f.opCap)
			_, unverified, err := fig6Cell(f, c, n)
			if err != nil {
				return fmt.Errorf("table4 %s %s: %w", f.name, c.name, err)
			}
			rows[ci][fi] = unverified
			if ci == 0 {
				base[fi] = unverified
			}
		}
	}
	for ci, c := range cells {
		row := []string{c.name}
		for fi := range Factories {
			if base[fi] == 0 {
				row = append(row, "0.00")
				continue
			}
			ratio := float64(rows[ci][fi]) / float64(base[fi])
			row = append(row, fmt.Sprintf("%.2f", ratio))
		}
		t.Add(row...)
	}
	fmt.Fprintf(w, "\nTable 4 — bytes accessed without checksum verification (normalized to Pmemobj)\n")
	t.Print(w)
	return nil
}

func factoryNames() []string {
	names := make([]string, len(Factories))
	for i, f := range Factories {
		names[i] = f.name
	}
	return names
}
