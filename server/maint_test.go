package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
)

// startMaintServer boots a server over a fresh set with the given
// options and returns its address.
func startMaintServer(t *testing.T, opts shard.Options) (string, *shard.Set) {
	t.Helper()
	set, err := shard.Create(t.TempDir(), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Shutdown()
		set.Abandon()
	})
	return srv.Addr().String(), set
}

// TestScrubOpEndToEnd exercises SCRUB(11) and INJECT(12) over TCP: a
// client injects live faults, a triggered pass heals them and says so,
// the health block reflects the work, and STATS carries the same scrub
// health fields.
func TestScrubOpEndToEnd(t *testing.T) {
	addr, _ := startMaintServer(t, shard.Options{})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < 512; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	// Health-only SCRUB runs nothing.
	st, err := c.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran {
		t.Fatal("mode-0 SCRUB claimed to have run a pass")
	}

	rep, err := c.Inject(2, 6) // mixed seeds: scribbles + poison
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected == 0 {
		t.Fatal("INJECT corrupted nothing on a populated store")
	}
	if rep.CapableShards == 0 || rep.CapableShards > rep.TotalShards {
		t.Fatalf("INJECT capability counts implausible: %+v", rep)
	}

	st, err = c.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ran {
		t.Fatal("mode-1 SCRUB did not run")
	}
	if st.Report.Fixed() == 0 {
		t.Fatalf("pass repaired nothing after %d injections: %+v", rep.Injected, st.Report)
	}
	if st.Report.Unrecovered != 0 {
		t.Fatalf("injected faults unrecoverable: %+v", st.Report)
	}
	if !st.Report.ChecksumsVerified {
		t.Fatalf("MLPC pass must verify checksums: %+v", st.Report)
	}

	// Data intact after healing.
	for k := uint64(0); k < 512; k += 5 {
		v, ok, err := c.Get(k)
		if err != nil || !ok || v != k {
			t.Fatalf("get %d after heal = (%d,%v,%v)", k, v, ok, err)
		}
	}

	// The same health fields ride in STATS.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScrubSteps == 0 {
		t.Fatalf("STATS lost scrub health: %+v", stats)
	}
}

// TestScrubBackgroundHealsOverTCP: with the maintenance scheduler on,
// injected corruption is healed with no client request asking for it
// (bg_repairs rises), while four connections keep GET/PUT/SCAN traffic
// running over the corrupted shards: no client may see an error or a
// wrong value.
func TestScrubBackgroundHealsOverTCP(t *testing.T) {
	addr, _ := startMaintServer(t, shard.Options{ScrubInterval: time.Millisecond})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys = 512
	for k := uint64(0); k < keys; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	// Every key holds its own value throughout, so any read can check
	// what it got.
	var served atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, err := Dial(t.Context(), addr)
			if err != nil {
				t.Errorf("traffic %d: %v", id, err)
				return
			}
			defer tc.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Uint64() % keys
				switch rng.Intn(3) {
				case 0:
					if v, ok, err := tc.Get(k); err != nil || !ok || v != k {
						t.Errorf("traffic %d: get %d = (%d,%v,%v)", id, k, v, ok, err)
						return
					}
				case 1:
					if err := tc.Put(k, k); err != nil {
						t.Errorf("traffic %d: put %d: %v", id, k, err)
						return
					}
				case 2:
					ps, _, _, err := tc.Scan(k, ^uint64(0), 16, 0)
					if err != nil {
						t.Errorf("traffic %d: scan from %d: %v", id, k, err)
						return
					}
					for _, p := range ps {
						if p.K < k || p.V != p.K {
							t.Errorf("traffic %d: scan from %d returned (%d,%d)", id, k, p.K, p.V)
							return
						}
					}
				}
				served.Add(1)
			}
		}()
	}
	// waitServed blocks until the traffic has completed n more ops, so
	// the injections and the heals both land under live load.
	waitServed := func(n uint64) {
		t.Helper()
		want := served.Load() + n
		for deadline := time.Now().Add(10 * time.Second); served.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("traffic stalled at %d ops", served.Load())
			}
		}
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	waitServed(200)
	if _, err := c.Inject(10, 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Scrub(false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Health.BgRepairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never repaired: %+v", st.Health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// last_full_pass_unix advances once every shard wraps a pass.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := c.Scrub(false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Health.LastFullPass > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no full pass completed: %+v", st.Health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitServed(200)
}

// TestScrubUnknownMode: a bad mode is rejected with ERR, not silently
// treated as health-or-pass.
func TestScrubUnknownMode(t *testing.T) {
	addr, _ := startMaintServer(t, shard.Options{})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.call(t.Context(), Request{Op: OpScrub, Key: 7}); err == nil {
		t.Fatal("scrub mode 7 accepted")
	}
}
