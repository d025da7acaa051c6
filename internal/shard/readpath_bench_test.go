package shard

import (
	"testing"
)

// Benchmarks of the concurrent verified-read fast path, with and without
// a write mix. Run with -cpu 1,4,8 to see the scaling axis: fast reads
// run on the callers' goroutines, and the write mix shows what commits
// cost them through gate fallbacks.

func benchSet(b *testing.B) *Set {
	b.Helper()
	s, err := Create(b.TempDir(), 2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Abandon)
	for k := uint64(0); k < 4096; k++ {
		if err := s.Put(k, k^0xBEEF); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func benchGets(b *testing.B, s *Set, writeEvery int) {
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		i := 0
		for pb.Next() {
			k = (k*2654435761 + 1) % 4096
			i++
			if writeEvery > 0 && i%writeEvery == 0 {
				if err := s.Put(k, k); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, ok, err := s.Get(k); err != nil || !ok {
				b.Fatalf("get %d = (%v,%v)", k, ok, err)
			}
		}
	})
}

func BenchmarkReadFastPure(b *testing.B)  { benchGets(b, benchSet(b), 0) }
func BenchmarkReadFastMixed(b *testing.B) { benchGets(b, benchSet(b), 10) }
