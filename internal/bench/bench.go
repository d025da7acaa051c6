// Package bench is the harness that regenerates every table and figure of
// the paper's evaluation (§4). Each experiment prints rows in the shape
// the paper reports; cmd/pglbench drives it from the command line and the
// repository-root bench_test.go exposes the same workloads as testing.B
// benchmarks.
//
// Absolute numbers differ from the paper — the substrate is a simulated
// NVMM device, not Optane silicon — but the comparative shape (which mode
// wins, by roughly what factor, where crossovers fall) is the
// reproduction target. See bench/ledger/README.md.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/pangolin-go/pangolin"
)

// Modes lists the Table 2 operation modes in the paper's order.
var Modes = []pangolin.Mode{
	pangolin.ModePmemobj,
	pangolin.ModePangolin,
	pangolin.ModePangolinML,
	pangolin.ModePangolinMLP,
	pangolin.ModePangolinMLPC,
	pangolin.ModePmemobjR,
}

// Config scales the experiments.
type Config struct {
	// Ops is the per-cell operation count for figure 3 style latency
	// measurements.
	Ops int
	// KVOps is the insert/remove count per data structure (the paper
	// uses 1M).
	KVOps int
	// Threads lists the concurrency levels for figure 4.
	Threads []int
	// Sizes lists the object sizes (bytes) swept in figures 3 and 4.
	Sizes []uint64
	// ScrubIntervals lists the "Scrub N" policies of figure 6/table 4.
	ScrubIntervals []uint64
}

// Quick returns a configuration that completes in tens of seconds.
func Quick() Config {
	return Config{
		Ops:            400,
		KVOps:          5000,
		Threads:        []int{1, 2, 4, 8},
		Sizes:          []uint64{64, 256, 1024, 4096, 16384},
		ScrubIntervals: []uint64{1000, 500},
	}
}

// Full returns a paper-scale configuration (1M KV operations).
func Full() Config {
	c := Quick()
	c.Ops = 5000
	c.KVOps = 1_000_000
	c.ScrubIntervals = []uint64{100_000, 50_000}
	return c
}

// geoFor builds a benchmark geometry with at least dataBytes of
// allocatable space. Rows are 256 KB (4 × 64 KB chunks) and zones carry 40
// data rows (10 MB); generous lanes and overflow absorb large
// transactions.
func geoFor(dataBytes uint64) pangolin.Geometry {
	geo := pangolin.Geometry{
		ChunkSize:       64 * 1024,
		ChunksPerRow:    4,
		RowsPerZone:     41,
		NumLanes:        64,
		LaneSize:        64 * 1024,
		OverflowExts:    64,
		OverflowExtSize: 256 * 1024,
		RangeLockBytes:  8 * 1024,
	}
	zoneData := (geo.RowsPerZone - 1) * geo.ChunkSize * geo.ChunksPerRow
	zones := dataBytes/zoneData + 2
	geo.NumZones = zones
	return geo
}

// newPool builds a pool for a benchmark cell. Persistence tracking stays
// on: its bookkeeping plays the role of NVMM write latency.
func newPool(mode pangolin.Mode, geo pangolin.Geometry, policy pangolin.VerifyPolicy, scrubEvery uint64) (*pangolin.Pool, error) {
	return pangolin.Create(pangolin.Config{
		Mode:       mode,
		Geometry:   geo,
		Policy:     policy,
		ScrubEvery: scrubEvery,
	})
}

// Table is a simple column-aligned printer for paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print writes the table to w.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// fmtNs formats a duration-per-op in microseconds.
func fmtNs(d time.Duration, ops int) string {
	if ops == 0 {
		return "-"
	}
	us := float64(d.Nanoseconds()) / float64(ops) / 1000
	return fmt.Sprintf("%.2f", us)
}

// fmtKops formats ops-per-second in thousands.
func fmtKops(ops int, d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(ops)/d.Seconds()/1000)
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
