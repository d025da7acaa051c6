package kvtest

import (
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// RunGrowth takes the structure from empty to n keys and part of the way
// back under every operation mode, in group-committed batches — so a
// structure that reorganises itself as it grows (the hashmap doubles its
// table and migrates it a few buckets per operation) does so inside
// transactions that also carry ordinary inserts, and works on objects the
// same transaction allocated. After the fill, after removing every third
// key, and after a crash and reopen, every key must be where the model
// says and Scan must visit each exactly once.
func RunGrowth(t *testing.T, h Harness, n int) {
	const batch = 16
	for _, mode := range pangolin.Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := pangolin.Create(pangolin.Config{Mode: mode, Geometry: testGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			m := h.newMap(t, p)
			model := make(map[uint64]uint64, n)
			key := func(i int) uint64 { return uint64(i)*0x9E3779B1 + 7 }
			for i := 0; i < n; i += batch {
				if err := p.Run(func(tx *pangolin.Tx) error {
					for j := i; j < min(i+batch, n); j++ {
						if err := m.InsertTx(tx, key(j), uint64(j)); err != nil {
							return err
						}
						model[key(j)] = uint64(j)
					}
					return nil
				}); err != nil {
					t.Fatalf("insert batch at %d: %v", i, err)
				}
				quiet(t, p, "after insert batch at %d", i)
			}
			checkAgainst(t, m, model, "after fill")
			for i := 0; i < n; i += 3 * batch {
				if err := p.Run(func(tx *pangolin.Tx) error {
					for j := i; j < min(i+3*batch, n); j += 3 {
						ok, err := m.RemoveTx(tx, key(j))
						if err != nil || !ok {
							t.Errorf("remove key %d: (%v, %v)", j, ok, err)
						}
						delete(model, key(j))
					}
					return nil
				}); err != nil {
					t.Fatalf("remove batch at %d: %v", i, err)
				}
				quiet(t, p, "after remove batch at %d", i)
			}
			checkAgainst(t, m, model, "after removes")

			var replica *pangolin.Device
			if r := p.ReplicaDevice(); r != nil {
				replica = r.CrashCopy(pangolin.CrashStrict, 0)
			}
			p2, err := pangolin.OpenDevice(p.Device().CrashCopy(pangolin.CrashStrict, 1), pangolin.Config{Mode: mode}, replica)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer p2.Close()
			m2, err := h.Attach(p2, m.Anchor())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, m2, model, "after reopen")
		})
	}
}

// checkAgainst verifies that m holds exactly model: every key by Lookup,
// and each exactly once by a full Scan.
func checkAgainst(t *testing.T, m kv.Map, model map[uint64]uint64, when string) {
	t.Helper()
	for k, want := range model {
		if v, ok, err := m.Lookup(k); err != nil || !ok || v != want {
			t.Fatalf("%s: lookup %d = (%d,%v,%v), want %d", when, k, v, ok, err, want)
		}
	}
	seen := make(map[uint64]bool, len(model))
	if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if want, ok := model[k]; !ok || v != want || seen[k] {
			t.Fatalf("%s: scan yielded (%d,%d): in model %v, seen before %v", when, k, v, ok, seen[k])
		}
		seen[k] = true
		return true
	}); err != nil {
		t.Fatalf("%s: scan: %v", when, err)
	}
	if len(seen) != len(model) {
		t.Fatalf("%s: scan visited %d keys, model has %d", when, len(seen), len(model))
	}
}
