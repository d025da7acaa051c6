// Benchmarks regenerating the paper's evaluation (§4) under testing.B.
// One benchmark family exists per figure and table; cmd/pglbench prints
// the same experiments as formatted rows at larger scales. See
// bench/ledger/README.md for the paper-vs-measured comparison.
package pangolin_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/bench"
	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
	"github.com/pangolin-go/pangolin/internal/parity"
	"github.com/pangolin-go/pangolin/structures/btree"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// benchSizes is the object-size sweep for figures 3 and 4 (trimmed from
// the CLI harness's five sizes to keep `go test -bench` runs bounded).
var benchSizes = []uint64{64, 1024, 16384}

// benchGeo sizes a pool for streams of allocations.
func benchGeo(objSize uint64, objs int) pangolin.Geometry {
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
	geo.NumZones = (objSize+4096)*uint64(objs)/zoneData + 2
	return geo
}

func mustPool(b *testing.B, mode pangolin.Mode, geo pangolin.Geometry) *pangolin.Pool {
	b.Helper()
	p, err := pangolin.Create(pangolin.Config{Mode: mode, Geometry: geo})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	return p
}

// BenchmarkFig3Alloc measures single-object allocation transactions
// (paper Figure 3, "alloc" panels).
func BenchmarkFig3Alloc(b *testing.B) {
	for _, mode := range pangolin.Modes() {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				const batch = 4096
				p := mustPool(b, mode, benchGeo(size, batch))
				oids := make([]pangolin.OID, 0, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(oids) == batch {
						// Recycle: free everything outside the timer.
						b.StopTimer()
						for _, oid := range oids {
							if err := p.Run(func(tx *pangolin.Tx) error { return tx.Free(oid) }); err != nil {
								b.Fatal(err)
							}
						}
						oids = oids[:0]
						b.StartTimer()
					}
					err := p.Run(func(tx *pangolin.Tx) error {
						oid, data, err := tx.Alloc(size, 1)
						if err != nil {
							return err
						}
						data[0] = byte(i)
						oids = append(oids, oid)
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3Overwrite measures whole-object overwrite transactions
// (Figure 3, "overwrite" panels).
func BenchmarkFig3Overwrite(b *testing.B) {
	for _, mode := range pangolin.Modes() {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				p := mustPool(b, mode, benchGeo(size, 64))
				var oid pangolin.OID
				if err := p.Run(func(tx *pangolin.Tx) error {
					var err error
					oid, _, err = tx.Alloc(size, 1)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf[0] = byte(i)
					err := p.Run(func(tx *pangolin.Tx) error {
						data, err := tx.AddRange(oid, 0, size)
						if err != nil {
							return err
						}
						copy(data, buf)
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3Free measures deallocation transactions (Figure 3, "free"
// panels). Objects are pre-allocated outside the timer in batches.
func BenchmarkFig3Free(b *testing.B) {
	for _, mode := range pangolin.Modes() {
		size := uint64(1024)
		b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
			const batch = 4096
			p := mustPool(b, mode, benchGeo(size, batch))
			oids := make([]pangolin.OID, 0, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(oids) == 0 {
					b.StopTimer()
					n := min(batch, b.N-i)
					for j := 0; j < n; j++ {
						err := p.Run(func(tx *pangolin.Tx) error {
							oid, _, err := tx.Alloc(size, 1)
							oids = append(oids, oid)
							return err
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				oid := oids[len(oids)-1]
				oids = oids[:len(oids)-1]
				if err := p.Run(func(tx *pangolin.Tx) error { return tx.Free(oid) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Scalability measures concurrent random overwrites (paper
// Figure 4) via RunParallel: each worker owns private objects.
func BenchmarkFig4Scalability(b *testing.B) {
	for _, mode := range []pangolin.Mode{pangolin.ModePangolinMLPC, pangolin.ModePangolinMLP, pangolin.ModePmemobjR} {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				const slots = 128
				p := mustPool(b, mode, benchGeo(size, slots))
				oids := make([]pangolin.OID, slots)
				for i := range oids {
					if err := p.Run(func(tx *pangolin.Tx) error {
						var err error
						oids[i], _, err = tx.Alloc(size, 1)
						return err
					}); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Uint64
				b.SetBytes(int64(size))
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					slot := int(next.Add(1)-1) % slots
					oid := oids[slot]
					buf := make([]byte, size)
					i := 0
					for pb.Next() {
						i++
						buf[0] = byte(i)
						err := p.Run(func(tx *pangolin.Tx) error {
							data, err := tx.AddRange(oid, 0, size)
							if err != nil {
								return err
							}
							copy(data, buf)
							return nil
						})
						if err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// fig5Modes trims the Figure 5/6 mode sweep for testing.B (pglbench runs
// the full matrix).
var fig5Modes = []pangolin.Mode{pangolin.ModePmemobj, pangolin.ModePangolinMLPC, pangolin.ModePmemobjR}

// kvForBench builds a structure in a pool sized for n keys.
func kvForBench(b *testing.B, f int, mode pangolin.Mode, n int) (kv.Map, *pangolin.Pool) {
	b.Helper()
	fac := bench.Factories[f]
	geo := benchGeo(fac.PerObj(), n)
	p := mustPool(b, mode, geo)
	m, err := fac.Make(p, n)
	if err != nil {
		b.Fatal(err)
	}
	return m, p
}

// BenchmarkFig5Insert measures key-value inserts per structure and mode
// (paper Figure 5, insert panels).
func BenchmarkFig5Insert(b *testing.B) {
	for fi := range bench.Factories {
		for _, mode := range fig5Modes {
			b.Run(fmt.Sprintf("%s/%s", bench.Factories[fi].Name(), mode), func(b *testing.B) {
				const batch = 30_000
				m, _ := kvForBench(b, fi, mode, batch)
				key := uint64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if key == batch {
						b.StopTimer()
						for k := uint64(0); k < batch; k++ {
							if _, err := m.Remove(k); err != nil {
								b.Fatal(err)
							}
						}
						key = 0
						b.StartTimer()
					}
					if err := m.Insert(key, key); err != nil {
						b.Fatal(err)
					}
					key++
				}
			})
		}
	}
}

// BenchmarkFig5Remove measures key-value removes (Figure 5, remove
// panels).
func BenchmarkFig5Remove(b *testing.B) {
	for fi := range bench.Factories {
		for _, mode := range fig5Modes {
			b.Run(fmt.Sprintf("%s/%s", bench.Factories[fi].Name(), mode), func(b *testing.B) {
				const batch = 30_000
				m, _ := kvForBench(b, fi, mode, batch)
				avail := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if avail == 0 {
						b.StopTimer()
						n := min(batch, b.N-i)
						for k := 0; k < n; k++ {
							if err := m.Insert(uint64(k), uint64(k)); err != nil {
								b.Fatal(err)
							}
						}
						avail = n
						b.StartTimer()
					}
					avail--
					if ok, err := m.Remove(uint64(avail)); err != nil || !ok {
						b.Fatalf("remove %d: %v %v", avail, ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6Policies measures insert cost under the checksum
// verification policies (paper Figure 6) on the large-object structure
// where verification matters most (rtree) and a small-object one (ctree).
func BenchmarkFig6Policies(b *testing.B) {
	type pol struct {
		name       string
		policy     pangolin.VerifyPolicy
		scrubEvery uint64
	}
	pols := []pol{
		{"Default", pangolin.VerifyDefault, 0},
		{"Scrub10K", pangolin.VerifyDefault, 10_000},
		{"Conservative", pangolin.VerifyConservative, 0},
	}
	for _, fi := range []int{0, 4} { // ctree, rtree
		for _, pc := range pols {
			b.Run(fmt.Sprintf("%s/%s", bench.Factories[fi].Name(), pc.name), func(b *testing.B) {
				fac := bench.Factories[fi]
				batch := 20_000
				if fi == 4 {
					batch = 4_000 // rtree nodes are 4 KB
				}
				geo := benchGeo(fac.PerObj(), batch)
				p, err := pangolin.Create(pangolin.Config{
					Mode: pangolin.ModePangolinMLPC, Geometry: geo,
					Policy: pc.policy, ScrubEvery: pc.scrubEvery,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(p.Close)
				m, err := fac.Make(p, batch)
				if err != nil {
					b.Fatal(err)
				}
				key := uint64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if key == uint64(batch) {
						b.StopTimer()
						for k := uint64(0); k < key; k++ {
							if _, err := m.Remove(k); err != nil {
								b.Fatal(err)
							}
						}
						key = 0
						b.StartTimer()
					}
					if err := m.Insert(key, key); err != nil {
						b.Fatal(err)
					}
					key++
				}
			})
		}
	}
}

// BenchmarkTable3TxSizes replays the Table 3 measurement, reporting the
// average allocated and modified bytes per insert transaction as custom
// metrics.
func BenchmarkTable3TxSizes(b *testing.B) {
	for fi := range bench.Factories {
		b.Run(bench.Factories[fi].Name(), func(b *testing.B) {
			const batch = 10_000
			m, p := kvForBench(b, fi, pangolin.ModePangolinMLPC, batch)
			st := p.Stats()
			key := uint64(0)
			st.ResetAccounting()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if key == batch {
					b.StopTimer()
					for k := uint64(0); k < key; k++ {
						if _, err := m.Remove(k); err != nil {
							b.Fatal(err)
						}
					}
					key = 0
					st.ResetAccounting()
					b.StartTimer()
				}
				if err := m.Insert(key, key); err != nil {
					b.Fatal(err)
				}
				key++
			}
			b.StopTimer()
			if txs := st.TxCount.Load(); txs > 0 {
				b.ReportMetric(float64(st.TxAllocBytes.Load())/float64(txs), "allocB/tx")
				b.ReportMetric(float64(st.TxModBytes.Load())/float64(txs), "modB/tx")
				b.ReportMetric(float64(st.TxObjects.Load())/float64(txs), "objs/tx")
			}
		})
	}
}

// BenchmarkTable4Vulnerability reports unverified object bytes per insert
// under the default policy (Table 4's measure) as a custom metric.
func BenchmarkTable4Vulnerability(b *testing.B) {
	for _, mode := range []pangolin.Mode{pangolin.ModePmemobj, pangolin.ModePangolinMLPC} {
		b.Run(mode.String(), func(b *testing.B) {
			const batch = 10_000
			m, p := kvForBench(b, 0, mode, batch) // ctree
			st := p.Stats()
			key := uint64(0)
			st.ResetAccounting()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if key == batch {
					b.StopTimer()
					for k := uint64(0); k < key; k++ {
						if _, err := m.Remove(k); err != nil {
							b.Fatal(err)
						}
					}
					key = 0
					st.ResetAccounting()
					b.StartTimer()
				}
				if err := m.Insert(key, key); err != nil {
					b.Fatal(err)
				}
				key++
			}
			b.StopTimer()
			if txs := st.TxCount.Load(); txs > 0 {
				b.ReportMetric(float64(st.UnverifiedBytes.Load())/float64(txs), "unverifiedB/tx")
			}
		})
	}
}

// BenchmarkPoolInit measures pool creation (zero + format + parity), the
// §4.2 one-time cost (the paper reports 130 s for a 100 GB pool).
func BenchmarkPoolInit(b *testing.B) {
	geo := pangolin.PaperGeometry(1) // one 25.6 MB zone, 100 rows
	b.SetBytes(int64(geo.PoolSize()))
	for i := 0; i < b.N; i++ {
		dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
		p, err := pangolin.CreateOnDevice(dev, pangolin.Config{
			Mode: pangolin.ModePangolinMLPC, Geometry: geo, Zero: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}

// BenchmarkPageRepair measures single-page online recovery (§4.6; the
// paper reports ~180 µs per page on a 100 GB pool).
func BenchmarkPageRepair(b *testing.B) {
	p := mustPool(b, pangolin.ModePangolinMLPC, benchGeo(1024, 4096))
	oids := make([]pangolin.OID, 512)
	for i := range oids {
		if err := p.Run(func(tx *pangolin.Tx) error {
			var err error
			oids[i], _, err = tx.Alloc(1024, 1)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := oids[i%len(oids)]
		p.InjectMediaError(oid.Off)
		if _, err := p.Get(oid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParityXover sweeps the atomic vs. vectorized parity update
// paths (the §3.5 hybrid scheme's 8 KB threshold ablation).
func BenchmarkParityXover(b *testing.B) {
	geo := layout.Default()
	for _, size := range []uint64{512, 4096, 8192, 32768} {
		for _, path := range []struct {
			name      string
			threshold int
		}{{"atomic", 1 << 30}, {"vectorized", 1}} {
			b.Run(fmt.Sprintf("%dB/%s", size, path.name), func(b *testing.B) {
				dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
				par := parity.New(dev, geo, path.threshold)
				delta := make([]byte, size)
				for i := range delta {
					delta[i] = byte(i)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					par.Update(0, uint64(i)%(geo.RowSize()-size), delta)
					dev.Fence()
				}
			})
		}
	}
}

// BenchmarkChecksumAblation compares incremental Adler32 against full
// CRC32 recomputation for a small update to a large object — the §3.5
// justification for choosing Adler.
func BenchmarkChecksumAblation(b *testing.B) {
	obj := make([]byte, 64*1024)
	old := obj[1000:1064]
	new_ := make([]byte, 64)
	b.Run("AdlerIncremental64of64K", func(b *testing.B) {
		sum := csum.Adler32(obj)
		b.SetBytes(64)
		for i := 0; i < b.N; i++ {
			csum.Update(sum, uint64(len(obj)), 1000, old, new_)
		}
	})
	b.Run("CRCFull64K", func(b *testing.B) {
		b.SetBytes(int64(len(obj)))
		for i := 0; i < b.N; i++ {
			csum.CRC32(obj)
		}
	})
	b.Run("AdlerFull64K", func(b *testing.B) {
		b.SetBytes(int64(len(obj)))
		for i := 0; i < b.N; i++ {
			csum.Adler32(obj)
		}
	})
}

// BenchmarkViewGet measures one verified lookup through a ReadView — the
// concurrent read path's per-GET cost below the shard gate: a btree of
// 100,000 keys, so a lookup touches about six objects, each located,
// validated against its slot and checked against the verified-read table.
func BenchmarkViewGet(b *testing.B) {
	const keys = 100_000
	p := mustPool(b, pangolin.ModePangolinMLPC, benchGeo(384, keys/4))
	t, err := btree.New(p)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < keys; k += 64 {
		err := p.Run(func(tx *pangolin.Tx) error {
			for i := k; i < min(k+64, keys); i++ {
				if err := t.InsertTx(tx, i*2654435761%keys, i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	view, err := btree.Attach(p.ReadView(), t.Anchor())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k := uint64(0)
	for i := 0; i < b.N; i++ {
		k = (k*2654435761 + 1) % keys
		if _, ok, err := view.Lookup(k); err != nil || !ok {
			b.Fatalf("lookup %d = (%v, %v)", k, ok, err)
		}
	}
}
