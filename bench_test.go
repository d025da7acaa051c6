// BenchmarkViewGet: the concurrent read path's per-GET cost. The paper's
// evaluation (§4) lives in internal/bench, driven by cmd/pglbench and
// held to its shape by that package's smoke tests.
package pangolin_test

import (
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/btree"
)

// BenchmarkViewGet measures one verified lookup through a ReadView — the
// concurrent read path's per-GET cost below the shard gate: a btree of
// 100,000 keys, so a lookup touches about six objects, each located,
// validated against its slot and checked against the verified-read table.
func BenchmarkViewGet(b *testing.B) {
	const keys = 100_000
	// 64 KB chunks, 4 to a row, 40 data rows to a zone (10 MB): twelve
	// zones leave the tree's nodes ample room.
	p, err := pangolin.Create(pangolin.Config{
		Mode: pangolin.ModePangolinMLPC,
		Geometry: pangolin.Geometry{
			NumZones:        12,
			ChunkSize:       64 * 1024,
			ChunksPerRow:    4,
			RowsPerZone:     41,
			NumLanes:        64,
			LaneSize:        64 * 1024,
			OverflowExts:    64,
			OverflowExtSize: 256 * 1024,
			RangeLockBytes:  8 * 1024,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
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
