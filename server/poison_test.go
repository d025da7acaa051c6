package server

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPoisonedFrameTorture is the ownership-contract enforcement test
// for the frame pool (pool.go): with poisonFrames set, every frame is
// scribbled with 0xDB the moment it is released, so any code path that
// still aliases recycled frame memory — a GET body not copied out, a
// scan page decoded after its frame went back to the pool — returns
// deterministic garbage instead of failing only under rare reuse
// timing. The test storms GET/MGET/SNAPSCAN readers over a read-only
// key range with a known value model (v = k*3) while a disjoint PUT
// storm churns frames through the pool as fast as possible, and checks
// every returned value against the model. Run it with -race: the
// poison scribble also gives the race detector a write to pair with
// any stale read.
func TestPoisonedFrameTorture(t *testing.T) {
	poisonFrames.Store(true)
	defer poisonFrames.Store(false)

	_, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Read-only region with a checkable model: v = k*3.
	const roKeys = 256
	p := c.Pipeline(t.Context())
	for k := uint64(1); k <= roKeys; k++ {
		p.Put(k, k*3)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	iters := 300
	if testing.Short() {
		iters = 50
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// PUT storm on a disjoint range: its only job is to recycle frames
	// (request frames client-side, completion frames server-side) as
	// fast as possible while the readers below hold their results.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := uint64(10_000 + g*1000 + i%500)
				if err := c.Put(k, rand.Uint64()); err != nil {
					report(err)
					return
				}
			}
		}(g)
	}

	// GET storm: single-key reads against the model.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(roKeys)) + 1
				v, ok, err := c.Get(k)
				if err != nil {
					report(err)
					return
				}
				if !ok || v != k*3 {
					t.Errorf("GET %d = %d, %v; want %d (stale frame memory?)", k, v, ok, k*3)
					return
				}
			}
		}(int64(g))
	}

	// MGET storm: batch reads, every slot checked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		keys := make([]uint64, 16)
		for i := 0; i < iters; i++ {
			for j := range keys {
				keys[j] = uint64(rng.Intn(roKeys)) + 1
			}
			vals, oks, err := c.MGet(keys)
			if err != nil {
				report(err)
				return
			}
			for j, k := range keys {
				if !oks[j] || vals[j] != k*3 {
					t.Errorf("MGET %d = %d, %v; want %d (stale frame memory?)", k, vals[j], oks[j], k*3)
					return
				}
			}
		}
	}()

	// SNAPSCAN storm: page through the read-only range repeatedly; the
	// pages are decoded from reused read buffers, so every pair is a
	// copy-out check.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			sc := c.SnapScan(1, roKeys)
			seen := 0
			for {
				pairs, err := sc.Next(64)
				if err != nil {
					report(err)
					return
				}
				if pairs == nil {
					break
				}
				for _, pr := range pairs {
					if pr.V != pr.K*3 {
						t.Errorf("SNAPSCAN pair %d = %d; want %d (stale frame memory?)", pr.K, pr.V, pr.K*3)
						return
					}
					seen++
				}
			}
			if seen != roKeys {
				t.Errorf("SNAPSCAN saw %d pairs, want %d", seen, roKeys)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
