package shard

import (
	"sync"
	"testing"
)

// Allocation-budget benchmarks for the shard layer's hot paths,
// gated by make bench-alloc against bench/alloc_budgets.txt (see the
// server package's alloc benchmarks for the end-to-end numbers).

// BenchmarkAllocGroupCommit drives one shard's worker through the
// asynchronous SubmitPut path with a deep backlog, so the loop's
// opportunistic drain folds the queue into group commits — the same
// shape the pipelined server produces. allocs/op covers the request's
// whole shard-layer life: submit, drain scratch, flatten, store
// Apply, per-op result delivery.
func BenchmarkAllocGroupCommit(b *testing.B) {
	s, err := Create(b.TempDir(), 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Abandon)
	var wg sync.WaitGroup
	done := func(BatchResult) { wg.Done() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		s.SubmitPut(uint64(i)%4096, uint64(i), done)
	}
	wg.Wait()
}

// BenchmarkAllocSnapshotScan pages a pinned-generation scan over a
// preloaded set; one iteration is one 256-pair page. The scan path's
// chunk merging and version-overlay resolution should not allocate
// beyond the returned pairs.
func BenchmarkAllocSnapshotScan(b *testing.B) {
	s, err := Create(b.TempDir(), 2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Abandon)
	for k := uint64(0); k < 4096; k++ {
		if err := s.Put(k, k*3); err != nil {
			b.Fatal(err)
		}
	}
	sn, err := s.OpenSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer sn.Release()
	b.ReportAllocs()
	b.ResetTimer()
	cursor := uint64(0)
	for i := 0; i < b.N; i++ {
		pairs, next, more, err := sn.Scan(cursor, ^uint64(0), 256)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 && !more {
			cursor = 0
			continue
		}
		cursor = next
		if !more {
			cursor = 0
		}
	}
}

// BenchmarkAllocViewGet is one fast-path GET: the caller's goroutine takes
// the shard's reader gate and runs a verified btree lookup against the
// store's read view. Nothing on that path may allocate — the verified-read
// table is a bitmap, the type check a map read, the counters plain words —
// which is what lets GETs scale with reader cores instead of with the GC.
func BenchmarkAllocViewGet(b *testing.B) {
	s, err := Create(b.TempDir(), 1, Options{Structure: "btree"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Abandon)
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, k*3); err != nil {
			b.Fatal(err)
		}
	}
	settle(s)
	b.ReportAllocs()
	b.ResetTimer()
	k := uint64(0)
	for i := 0; i < b.N; i++ {
		k = (k*2654435761 + 1) % keys
		if v, ok, err := s.Get(k); err != nil || !ok || v != k*3 {
			b.Fatalf("get %d = (%d, %v, %v)", k, v, ok, err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.FastGets < uint64(b.N) {
		b.Fatalf("only %d of %d GETs took the fast path", st.FastGets, b.N)
	}
}
