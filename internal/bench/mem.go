package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// Mem reproduces §4.2: NVMM storage overheads of parity vs. replication,
// the one-time pool-initialization (zeroing) latency, and micro-buffer
// DRAM usage. Shape targets: parity ≈ 1% of the pool with 100 chunk rows
// vs. 100% for Pmemobj-R; metadata well under 1%; µ-buffer DRAM bounded
// by in-flight transaction sizes.
func Mem(w io.Writer, cfg Config) error {
	geo := pangolin.PaperGeometry(4) // 100 chunk rows per zone: the paper's ratio
	poolSize := geo.PoolSize()
	parityBytes := geo.NumZones * geo.RowSize()
	metaBytes := geo.ZonesOff() + // headers, lanes, overflow (both copies)
		geo.NumZones*2*4096 + // zone header pages
		geo.NumZones*geo.CMChunks()*geo.ChunkSize // CM arrays

	t := &Table{Header: []string{"component", "bytes", "% of pool"}}
	pct := func(n uint64) string { return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(poolSize)) }
	t.Add("pool (4 zones, 100 rows)", fmtBytes(poolSize), "100%")
	t.Add("zone parity (Pangolin-MLP)", fmtBytes(parityBytes), pct(parityBytes))
	t.Add("metadata+logs (replicated)", fmtBytes(metaBytes), pct(metaBytes))
	t.Add("replica pool (Pmemobj-R)", fmtBytes(poolSize), "100%")
	fmt.Fprintf(w, "\nSection 4.2 — NVMM storage requirements\n")
	t.Print(w)

	// Pool initialization: zeroing + format + initial parity (the paper
	// measures 130 s for a 100 GB pool; ours scales with pool size).
	dev := nvm.New(poolSize, nvm.Options{TrackPersistence: true})
	start := time.Now()
	p, err := pangolin.CreateOnDevice(dev, pangolin.Config{
		Mode: pangolin.ModePangolinMLPC, Geometry: geo, Zero: true,
	})
	if err != nil {
		return err
	}
	initD := time.Since(start)
	fmt.Fprintf(w, "\npool init (zero+format+parity) for %s: %v (%.1f MiB/s)\n",
		fmtBytes(poolSize), initD.Round(time.Millisecond),
		float64(poolSize)/(1<<20)/initD.Seconds())

	// DRAM: µ-buffer high-water during a KV workload.
	f := factories[1] // rbtree: multi-object transactions
	m, err := f.make(p, cfg.KVOps)
	if err != nil {
		p.Close()
		return err
	}
	n := min(cfg.KVOps, 20_000)
	for _, k := range kvKeys(n) {
		if err := m.Insert(k, k); err != nil {
			p.Close()
			return err
		}
	}
	hw := p.Stats().MBufHighWater.Load()
	fmt.Fprintf(w, "micro-buffer DRAM high-water during %d rbtree inserts: %s\n",
		n, fmtBytes(uint64(hw)))
	p.Close()
	return nil
}
