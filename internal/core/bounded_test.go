package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// wideTx runs one transaction touching n small objects every way the
// commit path used to scan linearly per item: two declared ranges on each
// of n existing objects (checksum refresh over the range list, marked-byte
// accounting), n ranges on one shared object (range coalescing), n
// allocations of which every other one is freed again (allocation
// cancelling), and n/2 frees of objects the transaction had open
// (micro-buffer table removal). It returns the time from Begin to the end
// of Commit.
func wideTx(t *testing.T, e *Engine, objs []layout.OID, shared layout.OID, n int) time.Duration {
	t.Helper()
	start := time.Now()
	err := e.Run(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			for _, off := range []uint64{0, 16} {
				d, err := tx.AddRange(objs[i], off, 8)
				if err != nil {
					return err
				}
				d[off]++
			}
			d, err := tx.AddRange(shared, uint64(i)*16, 8)
			if err != nil {
				return err
			}
			d[uint64(i)*16]++
			oid, _, err := tx.Alloc(32, 7)
			if err != nil {
				return err
			}
			if i%2 == 0 {
				if err := tx.Free(oid); err != nil {
					return err
				}
			}
		}
		for i := 0; i < n; i += 2 {
			if err := tx.Free(objs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestWideTransactionScalesLinearly: a transaction over 8N objects may cost
// about 8× one over N, not 64×. Both run in this process on identical
// fresh pools and the best of several trials is compared, so the bound is
// relative and the machine's speed cancels. Linear work measures 9–11×
// here (the larger one spills its log into overflow extents and its maps
// out of cache), the seed's five per-item linear scans 40×; the gate sits
// at twice linear.
func TestWideTransactionScalesLinearly(t *testing.T) {
	const small, factor = 1500, 8
	if testing.Short() {
		t.Skip("timing comparison; the full run covers it")
	}
	best := func(n int) time.Duration {
		var min time.Duration
		for trial := 0; trial < 5; trial++ {
			geo := layout.Default()
			geo.NumZones = 16
			dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
			e, err := Create(dev, geo, Options{Mode: PangolinMLPC})
			if err != nil {
				t.Fatal(err)
			}
			objs := make([]layout.OID, n)
			var shared layout.OID
			if err := e.Run(func(tx *Tx) error {
				for i := range objs {
					if objs[i], _, err = tx.Alloc(32, 1); err != nil {
						return err
					}
				}
				shared, _, err = tx.Alloc(uint64(n)*16, 2)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			d := wideTx(t, e, objs, shared, n)
			if trial == 0 || d < min {
				min = d
			}
			verifyParity(t, e)
			verifyChecksums(t, e)
			e.Close()
		}
		return min
	}
	one, many := best(small), best(small*factor)
	ratio := float64(many) / float64(one)
	t.Logf("N=%d: %v, %dN: %v, ratio %.1f", small, one, factor, many, ratio)
	if ratio > 2*factor {
		t.Fatalf("transaction over %d× the objects took %.1f× the time (%v vs %v): commit work is not linear",
			factor, ratio, many, one)
	}
}

// TestFreshZeroRunsNotLogged: allocating a large zeroed object logs its
// header and what was written into it, not its size; the elided runs are
// redone as zeros over whatever the space held before, at every crash
// point of the commit.
func TestFreshZeroRunsNotLogged(t *testing.T) {
	const size = 200 << 10 // an extent; far more than a 32 KB lane
	mark := []byte("written into the fresh object")
	const markAt = 100<<10 + 5
	want := make([]byte, size)
	copy(want[markAt:], mark)

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for crashAt := 1; ; crashAt += stride {
		geo := layout.Default()
		dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
		e, err := Create(dev, geo, Options{Mode: PangolinMLPC})
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the space first: an object of the same size in every
		// zone, filled, committed, freed — the next allocation reuses
		// one's chunks.
		dirtied := make(map[uint64]bool)
		if err := e.Run(func(tx *Tx) error {
			for z := uint64(0); z < geo.NumZones; z++ {
				oid, d, err := tx.Alloc(size, 1)
				if err != nil {
					return err
				}
				copy(d, bytes.Repeat([]byte{0xAA}, size))
				dirtied[oid.Off] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(func(tx *Tx) error {
			for off := range dirtied {
				if err := tx.Free(layout.OID{Pool: e.uuid, Off: off}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		var oid layout.OID
		logged := e.stats.LoggedBytes.Load()
		crashed, completed := runUntilCrash(dev, crashAt, func() {
			if err := e.Run(func(tx *Tx) error {
				var d []byte
				oid, d, err = tx.Alloc(size, 2)
				if err != nil {
					return err
				}
				copy(d[markAt:], mark)
				return nil
			}); err != nil {
				t.Errorf("crashAt=%d: commit: %v", crashAt, err)
			}
		})
		if completed {
			if !dirtied[oid.Off] {
				t.Fatalf("allocation at %#x did not reuse dirtied space", oid.Off)
			}
			if n := e.stats.LoggedBytes.Load() - logged; n > 4*zeroRunMin {
				t.Fatalf("allocating %d zeroed bytes logged %d", size, n)
			}
		}
		e2, err := Open(dev.CrashCopy(nvm.CrashEvictRandom, int64(crashAt)), Options{Mode: PangolinMLPC}, nil)
		if err != nil {
			t.Fatalf("crashAt=%d: reopen: %v", crashAt, err)
		}
		if !oid.IsNil() { // else the crash came before Alloc
			got, err := e2.Get(oid)
			switch {
			case err == nil:
				if !bytes.Equal(got, want) {
					t.Fatalf("crashAt=%d: recovered object is not zeros plus the mark", crashAt)
				}
			case completed:
				t.Fatalf("crashAt=%d: committed allocation lost: %v", crashAt, err)
			}
		}
		assertPoolInvariants(t, e2)
		e2.Close()
		e.Close()
		if !crashed {
			return
		}
		if crashAt > 3000 {
			t.Fatal("sweep did not terminate")
		}
	}
}

// TestOwnExtentInUndoModes: under the undo-log modes a transaction can
// open, declare ranges on, read and free an extent-sized object it
// allocated itself. The allocator cannot size an uncommitted extent (the
// seed failed here with "extent … not yet committed"); the transaction's
// own reservation can.
func TestOwnExtentInUndoModes(t *testing.T) {
	for _, mode := range []Mode{Pmemobj, PmemobjR, PmemobjP} {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			size := e.geo.ChunkSize * 2
			var kept layout.OID
			if err := e.Run(func(tx *Tx) error {
				oid, _, err := tx.Alloc(size, 1)
				if err != nil {
					return err
				}
				d, err := tx.Open(oid)
				if err != nil {
					return err
				}
				d[0] = 1
				if d, err = tx.AddRange(oid, size-8, 8); err != nil {
					return err
				}
				d[size-1] = 2
				if _, err := tx.AddRange(oid, size-4, 8); err == nil {
					t.Error("range past the object's end accepted")
				}
				if d, err = tx.Get(oid); err != nil || d[0] != 1 || d[size-1] != 2 {
					return err
				}
				kept = oid
				// A second one, cancelled in the same transaction.
				gone, _, err := tx.Alloc(size, 1)
				if err != nil {
					return err
				}
				if _, err := tx.AddRange(gone, 0, 8); err != nil {
					return err
				}
				return tx.Free(gone)
			}); err != nil {
				t.Fatal(err)
			}
			e2 := reopenEngine(t, e, true, 1)
			d, err := e2.Get(kept)
			if err != nil || uint64(len(d)) != size || d[0] != 1 || d[size-1] != 2 {
				t.Fatalf("after reopen: len %d, err %v", len(d), err)
			}
			if live := e2.heap.CountLive(); live != 1 {
				t.Fatalf("%d live objects, want 1", live)
			}
			verifyParity(t, e2)
		})
	}
}
