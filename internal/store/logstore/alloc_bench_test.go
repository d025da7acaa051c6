package logstore

import (
	"testing"

	"github.com/pangolin-go/pangolin/internal/store"
)

// BenchmarkAllocLogAppend measures the log engine's committed-batch
// append: one iteration is one 64-op Apply (encode the run, one
// WriteAt, fold into the index). The encode, offset and result scratch
// are store-owned and reused, and records are encoded in place, so an
// Apply allocates nothing but index growth; the number is gated by
// make bench-alloc against bench/alloc_budgets.txt.
func BenchmarkAllocLogAppend(b *testing.B) {
	st, err := Create(b.TempDir()+"/shard-0000.log", Options{Structure: "hashmap", Index: 0, Count: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const batch = 64
	ops := make([]store.Op, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = store.Op{Kind: store.OpPut, K: uint64(i*batch+j) % 8192, V: uint64(i)}
		}
		if _, err := st.Apply(ops); err != nil {
			b.Fatal(err)
		}
	}
}
