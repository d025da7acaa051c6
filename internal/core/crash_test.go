package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// sweep runs fn once on dev and checks the crash images of its
// persistence points as it goes: the device persist hook calls check with
// the point's number at the first point and every stride-th after it,
// before the flush or fence there takes effect, and the run goes on. A
// crash image leaves the device untouched, so it is the one a crash
// stopping the run there would leave. Once fn returns, check runs with
// completed set, at the first sampled point past the last. A run that
// passes no persistence point fails the test.
func sweep(t *testing.T, dev *nvm.Device, stride int, fn func(), check func(point int, completed bool)) {
	t.Helper()
	points := 0
	dev.SetPersistHook(func() {
		if points++; (points-1)%stride == 0 && !t.Failed() {
			check(points, false)
		}
	})
	fn()
	dev.SetPersistHook(nil)
	if points == 0 {
		t.Fatal("the persist hook never fired: no crash point was checked")
	}
	check(points-(points-1)%stride+stride, true)
}

// images are the devices a sweep reverts its crash images into, reused
// check after check: the pool's and, in PmemobjR, the replica's.
type images struct{ dev, replica *nvm.Device }

func newImages(e *Engine) images {
	im := images{dev: nvm.New(e.dev.Size(), nvm.Options{TrackPersistence: true})}
	if e.replica != nil {
		im.replica = nvm.New(e.replica.Size(), nvm.Options{TrackPersistence: true})
	}
	return im
}

// open reverts e's crash image under mode and seed and opens it. The image
// keeps the replica of the original engine: replica pools are separate
// media, unaffected by the primary's crash image (a conservative model —
// the replica's own unflushed lines are a separate concern exercised
// elsewhere), so it gets the replica's strict image. Recovery resyncs the
// replica it is given, so a check never opens the live one.
func (im images) open(e *Engine, mode nvm.CrashMode, seed int64) (*Engine, error) {
	e.dev.CrashCopyInto(im.dev, mode, seed)
	if im.replica != nil {
		e.replica.CrashCopyInto(im.replica, nvm.CrashStrict, 0)
	}
	return Open(im.dev, Options{Mode: e.mode}, im.replica)
}

// crashModes are the modes whose crash recovery we sweep. One
// representative per commit protocol family plus the fully protected mode.
var crashModes = []Mode{Pmemobj, PmemobjR, Pangolin, PangolinMLPC}

// TestCommitCrashSweep is invariant P3: for every crash point in an
// overwrite transaction's commit and for multiple random cache-eviction
// outcomes, reopening the pool yields either the complete old or the
// complete new object contents — never a mix — with parity and checksums
// intact.
func TestCommitCrashSweep(t *testing.T) {
	for _, mode := range crashModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			oldData := bytes.Repeat([]byte{0xAA}, 300)
			newData := bytes.Repeat([]byte{0xBB}, 300)
			stride, seeds := 1, int64(4)
			if testing.Short() {
				// PR CI samples the sweep; the nightly workflow
				// visits every crash point with every seed.
				stride, seeds = 5, 2
			}
			geo := layout.Default()
			dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
			e, err := Create(dev, geo, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var oid layout.OID
			if err := e.Run(func(tx *Tx) error {
				var err error
				var data []byte
				oid, data, err = tx.Alloc(300, 1)
				if err != nil {
					return err
				}
				copy(data, oldData)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			im := newImages(e)
			sweep(t, dev, stride, func() {
				if err := e.Run(func(tx *Tx) error {
					data, err := tx.AddRange(oid, 0, 300)
					if err != nil {
						return err
					}
					copy(data, newData)
					return nil
				}); err != nil {
					t.Errorf("commit error: %v", err)
				}
			}, func(crashAt int, completed bool) {
				for seed := int64(0); seed < seeds; seed++ {
					e2, err := im.open(e, nvm.CrashEvictRandom, seed)
					if err != nil {
						t.Fatalf("crashAt=%d seed=%d: reopen: %v", crashAt, seed, err)
					}
					got, err := e2.Get(oid)
					if err != nil {
						t.Fatalf("crashAt=%d seed=%d: read: %v", crashAt, seed, err)
					}
					if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
						t.Fatalf("crashAt=%d seed=%d: torn object state: %x…", crashAt, seed, got[:8])
					}
					if completed && !bytes.Equal(got, newData) {
						t.Fatalf("crashAt=%d seed=%d: committed data lost", crashAt, seed)
					}
					assertPoolInvariants(t, e2)
					e2.Close()
				}
			})
		})
	}
}

// assertPoolInvariants checks P1 and P2 on a freshly recovered engine.
func assertPoolInvariants(t *testing.T, e *Engine) {
	t.Helper()
	if e.mode.Parity() {
		for z := uint64(0); z < e.geo.NumZones; z++ {
			bad, err := e.par.VerifyZone(z)
			if err != nil {
				t.Fatalf("parity verify zone %d: %v", z, err)
			}
			if bad != -1 {
				t.Fatalf("parity broken at zone %d column %d after recovery", z, bad)
			}
		}
	}
	if e.mode.Checksums() {
		e.heap.Objects(func(o alloc.ObjectInfo) bool {
			ok, err := e.scrubObject(o)
			if err != nil || !ok {
				t.Fatalf("object at %#x fails checksum after recovery (%v)", o.Base, err)
			}
			return true
		})
	}
}

// TestAllocCrashSweep sweeps crash points across an allocating
// transaction: after recovery the object either exists completely (header,
// data, checksum, CM bit) or not at all.
func TestAllocCrashSweep(t *testing.T) {
	for _, mode := range []Mode{Pmemobj, PangolinMLPC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			payload := bytes.Repeat([]byte{0x5A}, 200)
			stride := 1
			if testing.Short() {
				stride = 5 // nightly sweeps every crash point
			}
			geo := layout.Default()
			dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
			e, err := Create(dev, geo, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			baseline := e.heap.CountLive()
			im := newImages(e)
			sweep(t, dev, stride, func() {
				_ = e.Run(func(tx *Tx) error {
					_, data, err := tx.Alloc(200, 9)
					if err != nil {
						return err
					}
					copy(data, payload)
					return nil
				})
			}, func(crashAt int, completed bool) {
				e2, err := im.open(e, nvm.CrashEvictRandom, int64(crashAt))
				if err != nil {
					t.Fatalf("crashAt=%d: reopen: %v", crashAt, err)
				}
				defer e2.Close()
				live := e2.heap.CountLive()
				switch {
				case completed && live != baseline+1:
					t.Fatalf("crashAt=%d: committed alloc lost (live %d)", crashAt, live)
				case live != baseline && live != baseline+1:
					t.Fatalf("crashAt=%d: allocator inconsistent (live %d)", crashAt, live)
				}
				if live == baseline+1 {
					// The object must be complete: find it and check.
					found := false
					e2.heap.Objects(func(o alloc.ObjectInfo) bool {
						hdrOff := o.Base
						var hb [layout.ObjHeaderSize]byte
						if err := e2.dev.ReadAt(hb[:], hdrOff); err != nil {
							t.Fatalf("crashAt=%d: header read: %v", crashAt, err)
						}
						hdr := layout.DecodeObjHeader(hb[:])
						if hdr.Type != 9 {
							return true
						}
						found = true
						img := make([]byte, hdr.Size)
						if err := e2.dev.ReadAt(img, hdrOff); err != nil {
							t.Fatalf("crashAt=%d: image read: %v", crashAt, err)
						}
						if !bytes.Equal(img[layout.ObjHeaderSize:], payload) {
							t.Fatalf("crashAt=%d: recovered object data wrong", crashAt)
						}
						if e2.mode.Checksums() && layout.ObjChecksum(img) != hdr.Csum {
							t.Fatalf("crashAt=%d: recovered object checksum stale", crashAt)
						}
						return false
					})
					if !found {
						t.Fatalf("crashAt=%d: live object of type 9 not found", crashAt)
					}
				}
				if e2.mode.Parity() {
					for z := uint64(0); z < e2.geo.NumZones; z++ {
						if bad, _ := e2.par.VerifyZone(z); bad != -1 {
							t.Fatalf("crashAt=%d: parity broken at col %d", crashAt, bad)
						}
					}
				}
			})
		})
	}
}

// TestFreeCrashSweepRebuildsParity: a crash while a free is applied can
// persist a CM entry's new image ahead of its parity fold, and replay
// then finds nothing to rewrite. Recovery must still rebuild the parity
// of every entry the committed op covers. Swept for a slot free that
// collapses its run and for an extent free, with several eviction
// outcomes per crash point.
func TestFreeCrashSweepRebuildsParity(t *testing.T) {
	geo := layout.Default()
	for _, size := range []uint64{200, 2 * geo.ChunkSize} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
			e, err := Create(dev, geo, Options{Mode: PangolinMLPC})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var oid layout.OID
			if err := e.Run(func(tx *Tx) error {
				oid, _, err = tx.Alloc(size, 9)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			im := newImages(e)
			sweep(t, dev, 1, func() {
				_ = e.Run(func(tx *Tx) error { return tx.Free(oid) })
			}, func(crashAt int, _ bool) {
				for seed := int64(0); seed < 8; seed++ {
					e2, err := im.open(e, nvm.CrashEvictRandom, seed)
					if err != nil {
						t.Fatalf("crashAt=%d seed=%d: reopen: %v", crashAt, seed, err)
					}
					for z := uint64(0); z < e2.geo.NumZones; z++ {
						if bad, err := e2.par.VerifyZone(z); err != nil || bad != -1 {
							t.Fatalf("crashAt=%d seed=%d: zone %d parity stale at column %d (%v)", crashAt, seed, z, bad, err)
						}
					}
					e2.Close()
				}
			})
		})
	}
}

// TestConcurrentCommitsKeepInvariants hammers the engine with concurrent
// transactions and verifies parity/checksum invariants afterwards.
func TestConcurrentCommitsKeepInvariants(t *testing.T) {
	for _, mode := range []Mode{PangolinMLPC, PmemobjR} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			const workers = 8
			const opsPerWorker = 40
			// Pre-allocate one object per worker (no shared-object
			// writes, per the concurrency contract).
			oids := make([]layout.OID, workers)
			for i := range oids {
				if err := e.Run(func(tx *Tx) error {
					var err error
					oids[i], _, err = tx.Alloc(512, uint32(i))
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						err := e.Run(func(tx *Tx) error {
							off := uint64((w*37 + i*11) % 400)
							data, err := tx.AddRange(oids[w], off, 64)
							if err != nil {
								return err
							}
							for j := uint64(0); j < 64; j++ {
								data[off+j] = byte(w*opsPerWorker + i)
							}
							// Occasionally churn allocations too.
							if i%8 == 3 {
								o, _, err := tx.Alloc(64, 99)
								if err != nil {
									return err
								}
								return tx.Free(o)
							}
							return nil
						})
						if err != nil {
							errCh <- fmt.Errorf("worker %d op %d: %w", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			verifyParity(t, e)
			verifyChecksums(t, e)
			// Each worker's last write must be visible.
			for w := 0; w < workers; w++ {
				got, err := e.Get(oids[w])
				if err != nil {
					t.Fatal(err)
				}
				off := (w*37 + (opsPerWorker-1)*11) % 400
				want := byte(w*opsPerWorker + opsPerWorker - 1)
				if got[off] != want {
					t.Fatalf("worker %d: byte %d = %d, want %d", w, off, got[off], want)
				}
			}
		})
	}
}

// TestRecoveryDuringLoad injects a media error while concurrent
// transactions run; the faulting reader recovers online and the system
// keeps going.
func TestRecoveryDuringLoad(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var victim layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		victim, data, err = tx.Alloc(1024, 1)
		if err != nil {
			return err
		}
		copy(data, "victim object")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	others := make([]layout.OID, 4)
	for i := range others {
		if err := e.Run(func(tx *Tx) error {
			var err error
			others[i], _, err = tx.Alloc(512, 2)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range others {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Run(func(tx *Tx) error {
					data, err := tx.AddRange(others[i], 0, 32)
					if err != nil {
						return err
					}
					data[0] = byte(n)
					return nil
				}); err != nil {
					panic(err)
				}
				n++
			}
		}(i)
	}
	e.InjectMediaError(victim.Off)
	got, err := e.Get(victim)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("online recovery under load failed: %v", err)
	}
	if string(got[:13]) != "victim object" {
		t.Fatalf("recovered %q", got[:13])
	}
	verifyParity(t, e)
	verifyChecksums(t, e)
}

// TestReopenAfterManyTransactions exercises the full reopen path with a
// populated heap.
func TestReopenAfterManyTransactions(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			type obj struct {
				oid  layout.OID
				data []byte
			}
			var objs []obj
			for i := 0; i < 40; i++ {
				if err := e.Run(func(tx *Tx) error {
					size := uint64(50 + i*13)
					oid, data, err := tx.Alloc(size, uint32(i))
					if err != nil {
						return err
					}
					for j := range data {
						data[j] = byte(i + j)
					}
					objs = append(objs, obj{oid, append([]byte(nil), data...)})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Free every third object.
			for i := 0; i < len(objs); i += 3 {
				if err := e.Run(func(tx *Tx) error { return tx.Free(objs[i].oid) }); err != nil {
					t.Fatal(err)
				}
			}
			e2 := reopenEngine(t, e, true, 42)
			for i, o := range objs {
				if i%3 == 0 {
					continue // freed
				}
				got, err := e2.Get(o.oid)
				if err != nil {
					t.Fatalf("%v: object %d: %v", mode, i, err)
				}
				if !bytes.Equal(got, o.data) {
					t.Fatalf("%v: object %d content changed across reopen", mode, i)
				}
			}
			verifyParity(t, e2)
			verifyChecksums(t, e2)
		})
	}
}
