package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin/internal/store"
)

// collectSnap pages a SetSnapshot.Scan to completion, verifying the
// pagination contract as it goes: ascending keys across page boundaries,
// no duplicates, limit respected.
func collectSnap(t *testing.T, sn *SetSnapshot, limit int) []Pair {
	t.Helper()
	var out []Pair
	lo := uint64(0)
	for {
		pairs, next, more, err := sn.Scan(lo, ^uint64(0), limit)
		if err != nil {
			t.Fatalf("snapshot scan page at lo=%d: %v", lo, err)
		}
		if len(pairs) > limit {
			t.Fatalf("snapshot page of %d pairs exceeds limit %d", len(pairs), limit)
		}
		for i, p := range pairs {
			if i > 0 && p.K <= pairs[i-1].K {
				t.Fatalf("snapshot page out of order at %d: %d after %d", i, p.K, pairs[i-1].K)
			}
			if len(out) > 0 && i == 0 && p.K < lo {
				t.Fatalf("snapshot page regressed below its lo bound: %d < %d", p.K, lo)
			}
		}
		out = append(out, pairs...)
		if !more {
			return out
		}
		lo = next
	}
}

// TestSetSnapshotPinnedImage: a paginated snapshot scan reports exactly
// the set's committed state at open — overwrites, deletes, and inserts
// landing after the pin change nothing it yields — while the live scan
// serves the new state; Release is idempotent and fails later pages with
// the typed staleness error.
func TestSetSnapshotPinnedImage(t *testing.T) {
	for _, backend := range store.Backends() {
		t.Run(backend, func(t *testing.T) { testSetSnapshotPinnedImage(t, backend) })
	}
}

func testSetSnapshotPinnedImage(t *testing.T, backend string) {
	s := newSet(t, t.TempDir(), 3, Options{Structure: "btree", Backend: backend})
	defer s.Close()
	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := s.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sn.Gens()); got != s.Len() {
		t.Fatalf("snapshot vector has %d generations for %d shards", got, s.Len())
	}
	// Mutate every way a key can change after the pin.
	for k := uint64(0); k < n; k += 4 {
		if err := s.Put(k, 1_000_000+k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k < n; k += 4 {
		if _, err := s.Del(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(n); k < n+50; k++ {
		if err := s.Put(k, 7); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot still pages the pinned image.
	got := collectSnap(t, sn, 16)
	if len(got) != n {
		t.Fatalf("snapshot scan yielded %d pairs, want %d", len(got), n)
	}
	for i, p := range got {
		if p.K != uint64(i) || p.V != p.K*10 {
			t.Fatalf("snapshot pair %d = (%d,%d), want (%d,%d)", i, p.K, p.V, i, uint64(i)*10)
		}
	}
	// The aggregate gauges account for the open pins and the preserved
	// versions, and a snapshot scan bumped the per-shard counters.
	st := s.Stats()
	if st.SnapshotPins != s.Len() {
		t.Fatalf("Stats.SnapshotPins = %d, want %d", st.SnapshotPins, s.Len())
	}
	if st.VersionsHeld == 0 {
		t.Fatal("Stats.VersionsHeld = 0 with superseded versions pinned")
	}
	if st.SnapScans == 0 || st.SnapScanPairs == 0 {
		t.Fatalf("snapshot scan counters stayed zero: %+v", st)
	}
	// The live scan serves the new state (spot check: a deleted key is
	// gone, an inserted key is there).
	pairs, _, _, err := s.Scan(1, 1, 1)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("live scan resurrected deleted key 1: %v %v", pairs, err)
	}
	pairs, _, _, err = s.Scan(n, n, 1)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("live scan missed post-pin insert: %v %v", pairs, err)
	}
	// Release: idempotent, typed failure afterwards, gauges drop.
	sn.Release()
	sn.Release()
	if _, _, _, err := sn.Scan(0, ^uint64(0), 10); !errors.Is(err, store.ErrSnapshotTooOld) {
		t.Fatalf("scan after Release = %v, want ErrSnapshotTooOld", err)
	}
	if st := s.Stats(); st.SnapshotPins != 0 || st.VersionsHeld != 0 {
		t.Fatalf("gauges after Release = %d pins / %d versions, want 0 / 0", st.SnapshotPins, st.VersionsHeld)
	}
}

// TestSetSnapshotStableUnderWrites: two full paginated scans of the same
// snapshot, taken while writers keep committing, must be identical —
// the set-level proof that the snapshot vector pins one committed state
// across shards for its whole lifetime. Run with -race.
func TestSetSnapshotStableUnderWrites(t *testing.T) {
	for _, backend := range store.Backends() {
		t.Run(backend, func(t *testing.T) { testSetSnapshotStableUnderWrites(t, backend) })
	}
}

func testSetSnapshotStableUnderWrites(t *testing.T, backend string) {
	s := newSet(t, t.TempDir(), 4, Options{Structure: "btree", Backend: backend})
	defer s.Close()
	const keys = 512
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Uint64() % keys
				switch i % 3 {
				case 0, 1:
					if err := s.Put(k, rng.Uint64()); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Del(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	sn, err := s.OpenSnapshot()
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	first := collectSnap(t, sn, 13)
	second := collectSnap(t, sn, 37)
	sn.Release()
	close(stop)
	wg.Wait()
	if len(first) != len(second) {
		t.Fatalf("repeated snapshot scans diverged: %d vs %d pairs", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("repeated snapshot scans diverged at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}
