package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/pangolin-go/pangolin"
)

// policyCell describes one verification policy: a column of Figure 6
// and a row of Table 4.
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

// Fig6 reproduces Figure 6 and Table 4 from one sweep: inserts under
// each checksum verification policy (§3.3), timed for Figure 6 and
// counted for Table 4.
//
// Figure 6 is insert throughput. The MLPC column already verifies each
// object on its first read after a modification, so Conservative adds
// only the re-verification of objects no commit touched since: nearly
// free for small-object structures (ctree, rbtree, hashmap), expensive
// for large-object ones (btree, skiplist, rtree). Scrub modes sit between
// MLPC and Conservative, trading throughput for bounded vulnerability.
//
// Table 4 is the object bytes accessed without checksum verification,
// normalized to Pmemobj (which verifies nothing). Shape targets,
// non-increasing down every column: Pmemobj 1.0; MLPC below it, counting
// only reads of objects already verified since their last modification
// (micro-buffer opens and the first read after each commit verify); scrub
// modes lower again (window-bounded); Conservative 0.
func Fig6(w io.Writer, cfg Config) error {
	cells := policyCells(cfg)
	fig6 := &Table{Header: append([]string{"structure"}, cellNames(cells)...)}
	// unverified[ci][fi]: policy ci's unverified bytes on structure fi.
	unverified := make([][]uint64, len(cells))
	for ci := range cells {
		unverified[ci] = make([]uint64, len(factories))
	}
	for fi, f := range factories {
		n := min(cfg.KVOps, f.opCap)
		row := []string{f.name}
		for ci, c := range cells {
			kops, unv, err := fig6Cell(f, c, n)
			if err != nil {
				return fmt.Errorf("fig6 %s %s: %w", f.name, c.name, err)
			}
			row = append(row, kops)
			unverified[ci][fi] = unv
		}
		fig6.Add(row...)
	}
	fmt.Fprintf(w, "\nFigure 6 — insert throughput under verification policies (Kops/s), %d ops\n", cfg.KVOps)
	fig6.Print(w)

	table4 := &Table{Header: append([]string{"policy"}, factoryNames()...)}
	base := unverified[0] // Pmemobj
	for ci, c := range cells {
		row := []string{c.name}
		for fi := range factories {
			if base[fi] == 0 {
				row = append(row, "0.00")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(unverified[ci][fi])/float64(base[fi])))
		}
		table4.Add(row...)
	}
	fmt.Fprintf(w, "\nTable 4 — bytes accessed without checksum verification (normalized to Pmemobj)\n")
	table4.Print(w)
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
// object bytes (Table 4's vulnerability measure). A Scrub N cell scrubs
// as the paper's "Scrub" mode does (§3.3): a goroutine runs a pass after
// every N inserts (one transaction each), with at most one pass queued.
func fig6Cell(f kvFactory, c policyCell, n int) (string, uint64, error) {
	pool, err := kvPool(f, c.mode, n, c.policy)
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
	var scrubReq chan struct{}
	var scrubDone chan error
	if c.scrubEvery > 0 {
		scrubReq, scrubDone = make(chan struct{}, 1), make(chan error, 1)
		go func() {
			var err error
			for range scrubReq {
				if _, perr := pool.Scrub(); err == nil {
					err = perr
				}
			}
			scrubDone <- err
		}()
	}
	start := time.Now()
	for i, k := range keys {
		if err = m.Insert(k, k); err != nil {
			break
		}
		if scrubReq != nil && uint64(i+1)%c.scrubEvery == 0 {
			select {
			case scrubReq <- struct{}{}:
			default: // a pass is already queued
			}
		}
	}
	d := time.Since(start)
	if scrubReq != nil {
		// The deferred Close must not overlap a pass.
		close(scrubReq)
		err = errors.Join(err, <-scrubDone)
	}
	if err != nil {
		return "", 0, err
	}
	unverified := pool.Stats().UnverifiedBytes.Load()
	if c.scrubEvery > 0 {
		if uint64(n) >= c.scrubEvery && pool.Stats().ScrubRuns.Load() == 0 {
			return "", 0, fmt.Errorf("no scrub pass in %d inserts", n)
		}
		// Table 4 counts the window between two scrub passes, not the
		// whole run.
		txs := pool.Stats().TxCount.Load()
		if txs > c.scrubEvery {
			unverified = unverified * c.scrubEvery / txs
		}
	}
	return fmtKops(n, d), unverified, nil
}

func factoryNames() []string {
	names := make([]string, len(factories))
	for i, f := range factories {
		names[i] = f.name
	}
	return names
}
