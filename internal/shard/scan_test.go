package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the cross-shard ordered scan: global ordering and
// completeness of the k-way merge, cursor pagination, fast-path
// engagement and fallback, the typed shutdown error, the mode-selection
// bugfix, and the -race scan-vs-commit torture.

// fillSet populates n random keys and returns the model.
func fillSet(t *testing.T, s *Set, n int, seed int64) map[uint64]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint64, n)
	for len(model) < n {
		k := rng.Uint64() % (1 << 20)
		v := rng.Uint64()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	return model
}

// checkScanAgainstModel paginates Scan over [lo, hi] with the given page
// limit and asserts global ascending order, no duplicates, bounds, and
// exact agreement with the model's in-range contents.
func checkScanAgainstModel(t *testing.T, s *Set, model map[uint64]uint64, lo, hi uint64, limit int) {
	t.Helper()
	got := map[uint64]uint64{}
	last, first := uint64(0), true
	cursor := lo
	for {
		pairs, next, more, err := s.Scan(cursor, hi, limit)
		if err != nil {
			t.Fatalf("scan [%d,%d] from %d: %v", lo, hi, cursor, err)
		}
		if len(pairs) > limit {
			t.Fatalf("scan returned %d pairs, limit %d", len(pairs), limit)
		}
		for _, pr := range pairs {
			if pr.K < cursor || pr.K > hi {
				t.Fatalf("scan [%d,%d] from %d yielded out-of-bounds key %d", lo, hi, cursor, pr.K)
			}
			if !first && pr.K <= last {
				t.Fatalf("scan order regressed: %d after %d", pr.K, last)
			}
			if _, dup := got[pr.K]; dup {
				t.Fatalf("scan yielded key %d twice", pr.K)
			}
			got[pr.K] = pr.V
			last, first = pr.K, false
		}
		if !more {
			break
		}
		if next <= cursor && !first {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
		}
		cursor = next
	}
	want := 0
	for k, v := range model {
		if k >= lo && k <= hi {
			want++
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("key %d = (%d,%v), model %d", k, gv, ok, v)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("scan [%d,%d] returned %d pairs, model has %d in range", lo, hi, len(got), want)
	}
}

// TestScanOrderedAcrossShards: the k-way merge yields globally ordered,
// duplicate-free, complete, bound-respecting output over ≥4 shards, for
// an ordered structure and for the unordered hashmap (whose chunks are
// k-smallest selections, so the merged output is ordered all the same).
func TestScanOrderedAcrossShards(t *testing.T) {
	for _, structure := range []string{"btree", "hashmap"} {
		t.Run(structure, func(t *testing.T) {
			s := newSet(t, t.TempDir(), 4, Options{Structure: structure})
			defer s.Abandon()
			model := fillSet(t, s, 500, 11)
			checkScanAgainstModel(t, s, model, 0, ^uint64(0), 1<<20)
			checkScanAgainstModel(t, s, model, 1<<18, 1<<19, 64)
			// Page size smaller than a chunk, and much smaller than the
			// result: pagination must still be exact.
			checkScanAgainstModel(t, s, model, 0, ^uint64(0), 7)
		})
	}
}

// TestScanLimitAndCursor: limit truncates exactly, the cursor resumes
// without gaps or repeats, and an exhausted scan reports more=false.
func TestScanLimitAndCursor(t *testing.T) {
	s := newSet(t, t.TempDir(), 4, Options{Structure: "skiplist"})
	defer s.Abandon()
	for k := uint64(0); k < 100; k++ {
		if err := s.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	pairs, next, more, err := s.Scan(0, ^uint64(0), 30)
	if err != nil || len(pairs) != 30 || !more {
		t.Fatalf("first page = %d pairs, more=%v, err=%v", len(pairs), more, err)
	}
	if pairs[29].K != 29 || next != 30 {
		t.Fatalf("first page ends at %d, next=%d", pairs[29].K, next)
	}
	pairs, _, more, err = s.Scan(next, ^uint64(0), 100)
	if err != nil || len(pairs) != 70 || more {
		t.Fatalf("second page = %d pairs, more=%v, err=%v", len(pairs), more, err)
	}
	// Empty range and zero limit.
	if pairs, _, more, err := s.Scan(200, 300, 10); err != nil || len(pairs) != 0 || more {
		t.Fatalf("empty range = (%d pairs, %v, %v)", len(pairs), more, err)
	}
	if pairs, _, more, err := s.Scan(0, ^uint64(0), 0); err != nil || len(pairs) != 0 || more {
		t.Fatalf("zero limit = (%d pairs, %v, %v)", len(pairs), more, err)
	}
}

// TestScanFastPathEngages: with no writer running every chunk must be
// served on the fast path.
func TestScanFastPathEngages(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{Structure: "btree"})
	defer s.Abandon()
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	settle(s) // the last Put's reply lands just before its worker drops the gate
	if _, _, _, err := s.Scan(0, ^uint64(0), 1000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FastScans == 0 || st.Scans != 0 {
		t.Fatalf("idle scan not fast: fast=%d worker=%d (fallbacks=%d faults=%d)",
			st.FastScans, st.Scans, st.ScanFallbacks, st.ScanFaults)
	}
	if st.FastScanPairs != 64 {
		t.Fatalf("fast scan pairs = %d, want 64", st.FastScanPairs)
	}
}

// TestScanShuttingDownTyped: after Abandon, Scan reports the typed
// ErrShuttingDown — the same contract Get has — distinguishable from a
// real scan error.
func TestScanShuttingDownTyped(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{Structure: "btree"})
	if err := s.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	if _, _, _, err := s.Scan(0, ^uint64(0), 10); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Scan after Abandon = %v, want ErrShuttingDown", err)
	}
}

// TestModePmemobjRejectedExplicitly: the named mode channel rejects the
// unprotected baseline with the typed error instead of silently serving
// full protection, while the zero-value default still selects MLPC and
// the other names select what they say.
func TestModePmemobjRejectedExplicitly(t *testing.T) {
	if _, err := Create(t.TempDir(), 1, Options{Mode: "pmemobj"}); !errors.Is(err, ErrUnprotectedMode) {
		t.Fatalf("Create(Mode=pmemobj) = %v, want ErrUnprotectedMode", err)
	}
	if _, err := Open(t.TempDir(), Options{Mode: "pmemobj"}); !errors.Is(err, ErrUnprotectedMode) {
		t.Fatalf("Open(Mode=pmemobj) = %v, want ErrUnprotectedMode", err)
	}
	if _, err := Create(t.TempDir(), 1, Options{Mode: "protect-me-not"}); err == nil || errors.Is(err, ErrUnprotectedMode) {
		t.Fatalf("Create(unknown mode) = %v, want a distinct naming error", err)
	}
	// Zero-value default: full protection.
	opts := Options{}
	cfg, err := opts.config()
	if err != nil || cfg.Mode != 4 { // ModePangolinMLPC
		t.Fatalf("zero-value config = (%v mode %d), want MLPC", err, cfg.Mode)
	}
	// Named weaker-but-protected modes resolve to themselves.
	opts = Options{Mode: "pangolin-ml"}
	if cfg, err := opts.config(); err != nil || cfg.Mode != 2 {
		t.Fatalf("pangolin-ml config = (%v mode %d)", err, cfg.Mode)
	}
	// The named channel and a working set: create/open round-trips.
	dir := t.TempDir()
	s, err := Create(dir, 2, Options{Mode: "pangolin-mlp", Structure: "ctree"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Mode: "pangolin-mlp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	if v, ok, err := s2.Get(1); err != nil || !ok || v != 2 {
		t.Fatalf("get after reopen = (%d,%v,%v)", v, ok, err)
	}
}

// TestScanStormVsCommits is the scan analog of the read torture: scans
// paginate while writers commit, Sync and Scrub run, and every page must
// stay ordered, in-bounds, duplicate-free, and made of committed values
// (value == key*2+1 at any generation, or the prefill key*2).
func TestScanStormVsCommits(t *testing.T) {
	s := newSet(t, t.TempDir(), 4, Options{Structure: "rbtree", QueueLen: 16})
	defer s.Abandon()
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	scanErrs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				lo := rng.Uint64() % keys
				cursor, last, first := lo, uint64(0), true
				for {
					pairs, next, more, err := s.Scan(cursor, keys-1, 17)
					if err != nil {
						scanErrs <- err
						return
					}
					for _, pr := range pairs {
						if pr.K < cursor || pr.K > keys-1 {
							scanErrs <- errorsNewf("out-of-bounds key %d in [%d,%d]", pr.K, cursor, keys-1)
							return
						}
						if !first && pr.K <= last {
							scanErrs <- errorsNewf("order regressed: %d after %d", pr.K, last)
							return
						}
						if pr.V != pr.K*2 && pr.V != pr.K*2+1 {
							scanErrs <- errorsNewf("torn value %d for key %d", pr.V, pr.K)
							return
						}
						last, first = pr.K, false
					}
					if !more {
						break
					}
					cursor = next
				}
			}
		}(r)
	}
	// Writers rewrite values while saves and scrubs churn the gate.
	for i := 0; i < 40; i++ {
		for k := uint64(0); k < keys; k += 8 {
			if err := s.Put(k, k*2+1); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Scrub(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(scanErrs)
	for err := range scanErrs {
		t.Error(err)
	}
	st := s.Stats()
	if st.FastScans == 0 {
		t.Error("scan storm never engaged the fast path")
	}
	t.Logf("scan chunks: fast=%d worker=%d fallbacks=%d faults=%d pairs=%d/%d",
		st.FastScans, st.Scans, st.ScanFallbacks, st.ScanFaults, st.FastScanPairs, st.ScanPairs)
}

func errorsNewf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// Edge: limit hits exactly the number of remaining pairs — more must be
// false, not a dangling cursor pointing at an empty tail.
func TestScanExactLimitBoundary(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{Structure: "rbtree"})
	defer s.Abandon()
	for k := uint64(0); k < 50; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	pairs, _, more, err := s.Scan(0, 49, 50)
	if err != nil || len(pairs) != 50 {
		t.Fatalf("exact scan = %d pairs, err=%v", len(pairs), err)
	}
	if more {
		// A dangling more=true is tolerable only if the follow-up page is
		// empty and terminal; assert the strong property instead.
		t.Fatalf("more=true after consuming the whole range")
	}
	// Limit one less: cursor must resume onto exactly the last pair.
	pairs, next, more, err := s.Scan(0, 49, 49)
	if err != nil || len(pairs) != 49 || !more {
		t.Fatalf("49-scan = %d pairs, more=%v, err=%v", len(pairs), more, err)
	}
	pairs, _, more, err = s.Scan(next, 49, 49)
	if err != nil || len(pairs) != 1 || pairs[0].K != 49 || more {
		t.Fatalf("tail scan = %+v, more=%v, err=%v", pairs, more, err)
	}
}
