package parity

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
	"github.com/pangolin-go/pangolin/internal/xor"
)

// testPool builds a device + parity manager over the default geometry.
// A fresh device is all zeros, so the parity invariant holds vacuously.
func testPool(t *testing.T) (*nvm.Device, layout.Geometry, *Parity) {
	t.Helper()
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	return dev, geo, New(dev, geo, 0)
}

// writeThroughParity emulates a committed data write: writes new data at
// (zone,row,col) and applies the old⊕new patch to parity, like the engine's
// commit path does.
func writeThroughParity(dev *nvm.Device, geo layout.Geometry, p *Parity, z, row, col uint64, data []byte) {
	off := geo.RowByteOff(z, row, col)
	old := make([]byte, len(data))
	if err := dev.ReadAt(old, off); err != nil {
		panic(err)
	}
	delta := make([]byte, len(data))
	xor.Delta(delta, old, data)
	dev.WriteAt(off, data)
	dev.Persist(off, uint64(len(data)))
	p.Update(z, col, delta)
	dev.Fence()
}

func TestInvariantAfterWrites(t *testing.T) {
	dev, geo, p := testPool(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		z := uint64(rng.Intn(int(geo.NumZones)))
		row := uint64(rng.Intn(int(geo.DataRows())))
		n := rng.Intn(2000) + 1
		col := uint64(rng.Intn(int(geo.RowSize() - uint64(n))))
		data := make([]byte, n)
		rng.Read(data)
		writeThroughParity(dev, geo, p, z, row, col, data)
	}
	for z := uint64(0); z < geo.NumZones; z++ {
		if bad, err := p.VerifyZone(z); err != nil || bad != -1 {
			t.Fatalf("zone %d: invariant broken at col %d (err %v)", z, bad, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dev, geo, p := testPool(t)
	writeThroughParity(dev, geo, p, 0, 2, 100, []byte("hello parity"))
	if bad, _ := p.VerifyZone(0); bad != -1 {
		t.Fatalf("fresh write broke invariant at %d", bad)
	}
	// Scribble directly over the data: parity now stale.
	dev.Scribble(geo.RowByteOff(0, 2, 100), 4, rand.New(rand.NewSource(9)))
	bad, err := p.VerifyZone(0)
	if err != nil {
		t.Fatal(err)
	}
	if bad < 100 || bad >= 112 {
		t.Fatalf("mismatch at col %d, want within [100,112)", bad)
	}
}

// TestVerifyRangeFindsFirstMismatchWithoutAllocating: a verify pass over
// a warmed Parity allocates nothing, and reports the first stale column.
func TestVerifyRangeFindsFirstMismatchWithoutAllocating(t *testing.T) {
	dev, geo, p := testPool(t)
	if _, err := p.VerifyZone(0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if bad, err := p.VerifyZone(0); err != nil || bad != -1 {
			t.Fatalf("clean zone: mismatch at %d (err %v)", bad, err)
		}
	}); n != 0 {
		t.Fatalf("VerifyZone allocates %v times per call on a warmed parity", n)
	}
	col := geo.RowSize() - 100
	dev.Scribble(geo.RowByteOff(0, 1, col), 1, rand.New(rand.NewSource(1)))
	dev.Scribble(geo.RowByteOff(0, 2, col+50), 1, rand.New(rand.NewSource(2)))
	if bad, err := p.VerifyRange(0, 10, geo.RowSize()); err != nil || bad != int64(col) {
		t.Fatalf("mismatch at %d (err %v), want %d", bad, err, col)
	}
}

func TestLargeUpdateTakesVectorizedPath(t *testing.T) {
	dev, geo, p := testPool(t)
	n := int(p.Threshold()) + 4096 // force exclusive/vectorized path
	data := bytes.Repeat([]byte{0x3C}, n)
	writeThroughParity(dev, geo, p, 0, 1, 0, data)
	if bad, _ := p.VerifyZone(0); bad != -1 {
		t.Fatalf("invariant broken at %d after large update", bad)
	}
}

func TestUnalignedSmallUpdates(t *testing.T) {
	dev, geo, p := testPool(t)
	// Odd offsets and lengths exercise the masked head and tail words.
	for _, tc := range []struct{ col, n uint64 }{
		{1, 1}, {7, 3}, {13, 17}, {63, 65}, {4095, 2},
	} {
		data := bytes.Repeat([]byte{0xA5}, int(tc.n))
		writeThroughParity(dev, geo, p, 0, 3, tc.col, data)
	}
	if bad, _ := p.VerifyZone(0); bad != -1 {
		t.Fatalf("invariant broken at col %d", bad)
	}
}

func TestReconstructColumn(t *testing.T) {
	dev, geo, p := testPool(t)
	secret := []byte("reconstruct me from parity!")
	writeThroughParity(dev, geo, p, 0, 5, 777, secret)
	// Also dirty the same columns in a different row: overlap (§3.5).
	writeThroughParity(dev, geo, p, 0, 8, 770, bytes.Repeat([]byte{0xEE}, 50))

	got := make([]byte, len(secret))
	if err := p.ReconstructColumn(0, 777, uint64(len(secret)), 5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("reconstructed %q, want %q", got, secret)
	}
}

func TestReconstructColumnAfterPoison(t *testing.T) {
	dev, geo, p := testPool(t)
	secret := bytes.Repeat([]byte{0x77}, nvm.PageSize)
	// Page-aligned write filling exactly one page of row 2.
	col := uint64(2 * nvm.PageSize)
	writeThroughParity(dev, geo, p, 0, 2, col, secret)
	// The media loses that page.
	off := geo.RowByteOff(0, 2, col)
	dev.Poison(off)
	// Reconstruction must not read the poisoned row, only survivors.
	got := make([]byte, nvm.PageSize)
	if err := p.ReconstructColumn(0, col, nvm.PageSize, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("reconstruction after poison returned wrong data")
	}
}

func TestReconstructDoubleFaultFails(t *testing.T) {
	dev, geo, p := testPool(t)
	col := uint64(0)
	// Two rows lose overlapping pages: unrecoverable, must error.
	dev.Poison(geo.RowByteOff(0, 1, col))
	dev.Poison(geo.RowByteOff(0, 4, col))
	got := make([]byte, nvm.PageSize)
	if err := p.ReconstructColumn(0, col, nvm.PageSize, 1, got); err == nil {
		t.Fatal("expected error for double fault in one page column")
	}
}

func TestRecomputeColumn(t *testing.T) {
	dev, geo, p := testPool(t)
	// Write data WITHOUT updating parity (as if a crash interrupted the
	// parity step), then recompute.
	data := []byte("torn commit data")
	off := geo.RowByteOff(0, 4, 50)
	dev.WriteAt(off, data)
	dev.Persist(off, uint64(len(data)))
	if bad, _ := p.VerifyZone(0); bad == -1 {
		t.Fatal("expected stale parity before recompute")
	}
	if err := p.RecomputeColumn(0, 50, uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	if bad, _ := p.VerifyZone(0); bad != -1 {
		t.Fatalf("invariant still broken at %d after recompute", bad)
	}
}

func TestUpdateRejectsRowOverflow(t *testing.T) {
	_, geo, p := testPool(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Update(0, geo.RowSize()-4, make([]byte, 8))
}

// The paper's central concurrency claim (§3.5): overlapping objects in
// different rows can update shared parity concurrently with atomic XORs
// and the result is order-independent. Hammer one page column from many
// goroutines and check the invariant.
func TestConcurrentOverlappingUpdates(t *testing.T) {
	dev, geo, p := testPool(t)
	const workers = 8
	const itersPerWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			row := uint64(w) % geo.DataRows()
			base := uint64(w) * 97 // all workers within the same lock ranges
			for i := 0; i < itersPerWorker; i++ {
				n := rng.Intn(300) + 1
				col := base + uint64(rng.Intn(512))
				data := make([]byte, n)
				rng.Read(data)
				off := geo.RowByteOff(0, row, col)
				old := make([]byte, n)
				if err := dev.ReadAt(old, off); err != nil {
					panic(err)
				}
				delta := make([]byte, n)
				xor.Delta(delta, old, data)
				dev.WriteAt(off, data)
				dev.Persist(off, uint64(n))
				p.Update(0, col, delta)
			}
		}(w)
	}
	wg.Wait()
	dev.Fence()
	if bad, err := p.VerifyZone(0); err != nil || bad != -1 {
		t.Fatalf("invariant broken at col %d after concurrent updates (err %v)", bad, err)
	}
}

// Mixed small (atomic/shared) and large (vectorized/exclusive) concurrent
// updates must serialize correctly through the range-locks.
func TestConcurrentHybridPaths(t *testing.T) {
	dev, geo, p := testPool(t)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			row := uint64(w) % geo.DataRows()
			for i := 0; i < 20; i++ {
				var n int
				if w%2 == 0 {
					n = int(p.Threshold()) + 1024 // vectorized
				} else {
					n = rng.Intn(256) + 1 // atomic
				}
				col := uint64(rng.Intn(int(geo.RowSize() - uint64(n))))
				data := make([]byte, n)
				rng.Read(data)
				off := geo.RowByteOff(0, row, col)
				old := make([]byte, n)
				if err := dev.ReadAt(old, off); err != nil {
					panic(err)
				}
				delta := make([]byte, n)
				xor.Delta(delta, old, data)
				dev.WriteAt(off, data)
				dev.Persist(off, uint64(n))
				p.Update(0, col, delta)
			}
		}(w)
	}
	wg.Wait()
	dev.Fence()
	if bad, err := p.VerifyZone(0); err != nil || bad != -1 {
		t.Fatalf("invariant broken at col %d (err %v)", bad, err)
	}
}

// Property: a random sequence of write-through-parity operations preserves
// the invariant and reconstruction recovers any single row's range.
func TestReconstructAnyRow(t *testing.T) {
	geo := layout.Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
		p := New(dev, geo, 0)
		type wr struct {
			row, col uint64
			data     []byte
		}
		var writes []wr
		for i := 0; i < 10; i++ {
			n := rng.Intn(500) + 1
			w := wr{
				row:  uint64(rng.Intn(int(geo.DataRows()))),
				col:  uint64(rng.Intn(int(geo.RowSize() - uint64(n)))),
				data: make([]byte, n),
			}
			rng.Read(w.data)
			writeThroughParity(dev, geo, p, 0, w.row, w.col, w.data)
			writes = append(writes, w)
		}
		// Reconstruct the columns of the LAST write to each row and
		// compare with what is actually stored there.
		for _, w := range writes {
			stored := make([]byte, len(w.data))
			if err := dev.ReadAt(stored, geo.RowByteOff(0, w.row, w.col)); err != nil {
				return false
			}
			rec := make([]byte, len(w.data))
			if err := p.ReconstructColumn(0, w.col, uint64(len(w.data)), w.row, rec); err != nil {
				return false
			}
			if !bytes.Equal(rec, stored) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
