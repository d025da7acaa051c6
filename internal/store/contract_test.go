// Backend contract suite: every store.Store backend must pass the same
// behavioral checks — single and batched operations, batch atomicity,
// complete scans, reopen-after-save, crash-image recovery, and typed
// corruption surfacing — so the shard layer can treat backends as
// interchangeable. The suite is parameterized over a harness per
// backend; adding a backend means adding a harness, not new tests.
package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/logstore"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// harness creates and reopens one backend's store in a directory. The
// corrupt hook damages one live record/object on media so the typed
// corruption test can run per backend; injects reports whether the
// backend is expected to provide store.FaultInjector.
type harness struct {
	name    string
	injects bool
	create  func(t *testing.T, dir string) store.Store
	open    func(t *testing.T, dir string) store.Store
	corrupt func(t *testing.T, st store.Store, dir string)
}

func pgConfig() pangolin.Config {
	return pangolin.Config{Mode: pangolin.ModePangolinMLPC}
}

func harnesses(t *testing.T) []harness { return harnessesStruct(t, "hashmap") }

// harnessesStruct builds the backend harnesses over a chosen kv
// structure. The main suite runs on hashmap; the snapshot suite also
// runs on btree so the ordered snapshot-scan merge path (sorted overlay
// interleaved with the ascending live stream) is exercised — the
// logstore serves scans from its index map and stays unordered
// regardless.
func harnessesStruct(t *testing.T, structureName string) []harness {
	structure, err := registry.ByName(structureName)
	if err != nil {
		t.Fatal(err)
	}
	return []harness{
		{
			name:    "pangolin",
			injects: true,
			create: func(t *testing.T, dir string) store.Store {
				pools, err := pangolin.NewPoolSetShards(dir, 1, []int{0}, pgConfig())
				if err != nil {
					t.Fatal(err)
				}
				st, err := pangolinstore.Create(pools, 0, structure, pangolin.ScrubberConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			open: func(t *testing.T, dir string) store.Store {
				pools, err := pangolin.OpenPoolSetShards(dir, 1, []int{0}, pgConfig())
				if err != nil {
					t.Fatal(err)
				}
				st, err := pangolinstore.Open(pools, 0, pangolin.ScrubberConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			corrupt: func(t *testing.T, st store.Store, dir string) {
				// Poison the page under the structure's anchor: the next
				// verified read through it faults with a typed error.
				ps := st.(*pangolinstore.Store)
				ps.Pool().InjectMediaError(ps.Map().Anchor().Off)
			},
		},
		{
			name:    "logstore",
			injects: false,
			create: func(t *testing.T, dir string) store.Store {
				st, err := logstore.Create(logstore.ShardDir(dir, 0), logstore.Options{
					Structure: structureName, Index: 0, Count: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			open: func(t *testing.T, dir string) store.Store {
				st, err := logstore.Open(logstore.ShardDir(dir, 0), logstore.Options{
					Structure: structureName, Index: 0, Count: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			corrupt: func(t *testing.T, st store.Store, dir string) {
				// Flip one byte inside the first segment's first record.
				seg := filepath.Join(logstore.ShardDir(dir, 0), "000000.seg")
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) < 8 {
					t.Fatalf("segment too short to corrupt: %d bytes", len(data))
				}
				data[6] ^= 0xFF
				if err := os.WriteFile(seg, data, 0o666); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, h harness)) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) { fn(t, h) })
	}
}

func mustApply(t *testing.T, st store.Store, ops ...store.Op) []store.Result {
	t.Helper()
	res, err := st.Apply(ops)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(res) != len(ops) {
		t.Fatalf("Apply returned %d results for %d ops", len(res), len(ops))
	}
	return res
}

func mustGet(t *testing.T, st store.Store, k uint64) (uint64, bool) {
	t.Helper()
	v, ok, err := st.Get(k)
	if err != nil {
		t.Fatalf("Get(%d): %v", k, err)
	}
	return v, ok
}

func TestContractBasicOps(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		if st.Backend() != h.name {
			t.Fatalf("Backend() = %q, want %q", st.Backend(), h.name)
		}
		for k := uint64(0); k < 100; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k * 3})
		}
		for k := uint64(0); k < 100; k++ {
			if v, ok := mustGet(t, st, k); !ok || v != k*3 {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*3)
			}
		}
		if _, ok := mustGet(t, st, 1000); ok {
			t.Fatal("Get of an absent key reported ok")
		}
		// Overwrite.
		mustApply(t, st, store.Op{Kind: store.OpPut, K: 5, V: 999})
		if v, _ := mustGet(t, st, 5); v != 999 {
			t.Fatalf("overwrite lost: got %d", v)
		}
		// Delete reports presence, removes, and is idempotent.
		res := mustApply(t, st, store.Op{Kind: store.OpDel, K: 5})
		if !res[0].OK {
			t.Fatal("Del of a present key reported absent")
		}
		if _, ok := mustGet(t, st, 5); ok {
			t.Fatal("key survived delete")
		}
		res = mustApply(t, st, store.Op{Kind: store.OpDel, K: 5})
		if res[0].OK {
			t.Fatal("Del of an absent key reported present")
		}
		stats := st.Stats()
		if stats.Backend != h.name {
			t.Fatalf("Stats = %+v, want backend %s", stats, h.name)
		}
		checkOccupancy(t, h, stats, 99)
	})
}

// checkOccupancy asserts lower bounds on a store's Stats for n live pairs.
// Objects and Bytes are backend-defined: the log index holds one entry per
// live key, so Objects >= n there; a pool counts live allocator objects,
// and its default hashmap packs 61 pairs into one, so there the bound is on
// Bytes, which hold every live 16-byte pair.
func checkOccupancy(t *testing.T, h harness, stats store.Stats, n int) {
	t.Helper()
	if h.name == "logstore" {
		if stats.Objects < n {
			t.Fatalf("Stats = %+v, want >= %d index entries", stats, n)
		}
		return
	}
	if stats.Objects == 0 || stats.Bytes < uint64(n)*16 {
		t.Fatalf("Stats = %+v, want live objects and >= %d bytes", stats, n*16)
	}
}

func TestContractBatchSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		mustApply(t, st, store.Op{Kind: store.OpPut, K: 1, V: 10})
		// One batch mixing all kinds; gets observe the batch's earlier
		// ops (read-your-writes within the batch).
		res := mustApply(t, st,
			store.Op{Kind: store.OpGet, K: 1},
			store.Op{Kind: store.OpPut, K: 2, V: 20},
			store.Op{Kind: store.OpGet, K: 2},
			store.Op{Kind: store.OpDel, K: 1},
			store.Op{Kind: store.OpGet, K: 1},
			store.Op{Kind: store.OpDel, K: 7},
		)
		if !res[0].OK || res[0].V != 10 {
			t.Fatalf("pre-existing get = %+v", res[0])
		}
		if !res[2].OK || res[2].V != 20 {
			t.Fatalf("get of same-batch put = %+v", res[2])
		}
		if !res[3].OK {
			t.Fatal("del of a present key reported absent")
		}
		if res[4].OK {
			t.Fatal("get observed a key the same batch deleted")
		}
		if res[5].OK {
			t.Fatal("del of an absent key reported present")
		}
		// An all-get batch mutates nothing.
		mustApply(t, st, store.Op{Kind: store.OpGet, K: 2}, store.Op{Kind: store.OpGet, K: 3})
		if v, ok := mustGet(t, st, 2); !ok || v != 20 {
			t.Fatalf("state changed under an all-get batch: (%d,%v)", v, ok)
		}
	})
}

func TestContractScanComplete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		for k := uint64(0); k < 200; k += 2 {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k + 1})
		}
		got := make(map[uint64]uint64)
		last, ordered := uint64(0), true
		err := st.Scan(10, 50, func(k, v uint64) bool {
			if dup, seen := got[k]; seen {
				t.Fatalf("scan yielded key %d twice (vals %d, %d)", k, dup, v)
			}
			if len(got) > 0 && k < last {
				ordered = false
			}
			last = k
			got[k] = v
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(10); k <= 50; k += 2 {
			if got[k] != k+1 {
				t.Fatalf("scan missed or mangled key %d: got %d", k, got[k])
			}
		}
		if len(got) != 21 {
			t.Fatalf("scan yielded %d pairs, want 21", len(got))
		}
		if st.Ordered() && !ordered {
			t.Fatal("an Ordered() backend yielded out-of-order keys")
		}
		// Early stop is honored.
		n := 0
		if err := st.Scan(0, ^uint64(0), func(k, v uint64) bool { n++; return n < 5 }); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("scan continued past a false return: %d pairs", n)
		}
	})
}

func TestContractReopen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		dir := t.TempDir()
		st := h.create(t, dir)
		for k := uint64(0); k < 64; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: ^k})
		}
		mustApply(t, st, store.Op{Kind: store.OpDel, K: 7})
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = h.open(t, dir)
		defer st.Close()
		for k := uint64(0); k < 64; k++ {
			v, ok := mustGet(t, st, k)
			if k == 7 {
				if ok {
					t.Fatal("deleted key resurrected by reopen")
				}
				continue
			}
			if !ok || v != ^k {
				t.Fatalf("reopen lost key %d: (%d,%v)", k, v, ok)
			}
		}
		checkOccupancy(t, h, st.Stats(), 63)
	})
}

func TestContractCrashReopen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		for seed := int64(1); seed <= 5; seed++ {
			dir := t.TempDir()
			st := h.create(t, dir)
			for k := uint64(0); k < 128; k++ {
				mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k ^ 0xABCD})
			}
			if err := st.Save(); err != nil {
				t.Fatal(err)
			}
			// Unsaved tail: may or may not survive the crash, but must
			// never corrupt the saved prefix.
			for k := uint64(128); k < 192; k++ {
				mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k})
			}
			if err := st.CrashSave(seed); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st = h.open(t, dir)
			for k := uint64(0); k < 128; k++ {
				if v, ok := mustGet(t, st, k); !ok || v != k^0xABCD {
					t.Fatalf("seed %d: crash lost saved key %d: (%d,%v)", seed, k, v, ok)
				}
			}
			// Tail keys must be all-or-nothing per batch: present with the
			// right value or absent, never mangled.
			for k := uint64(128); k < 192; k++ {
				if v, ok := mustGet(t, st, k); ok && v != k {
					t.Fatalf("seed %d: torn tail key %d = %d", seed, k, v)
				}
			}
			// The recovered store accepts writes.
			mustApply(t, st, store.Op{Kind: store.OpPut, K: 9999, V: 1})
			if v, ok := mustGet(t, st, 9999); !ok || v != 1 {
				t.Fatalf("seed %d: post-recovery write lost", seed)
			}
			st.Close()
		}
	})
}

func TestContractTypedCorruption(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		dir := t.TempDir()
		st := h.create(t, dir)
		defer st.Close()
		// Few keys: the pool backend's early allocations share pages with
		// the structure's anchor, so poisoning the anchor's page is
		// guaranteed to sit under live data.
		for k := uint64(0); k < 8; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k})
		}
		// Attach the view BEFORE corrupting, mirroring the worker (one
		// long-lived view from startup): the owner's read path repairs
		// corruption online (the pangolin backend does, even during view
		// construction), but an already-attached read-only view must
		// surface it TYPED — that's what routes faulting fast-path reads
		// to the worker's repairing path.
		view, err := st.ReadView()
		if err != nil {
			t.Fatal(err)
		}
		h.corrupt(t, st, dir)
		var sawTyped bool
		for k := uint64(0); k < 8; k++ {
			_, _, err := view.Get(k)
			if err == nil {
				continue
			}
			if !pangolin.IsCorruption(err) && !pangolin.IsPoison(err) {
				t.Fatalf("corruption surfaced untyped: %v", err)
			}
			sawTyped = true
		}
		if !sawTyped {
			t.Fatal("no read surfaced the injected corruption")
		}
	})
}

func TestContractCapabilities(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		if _, ok := st.(store.FaultInjector); ok != h.injects {
			t.Fatalf("FaultInjector presence = %v, want %v", ok, h.injects)
		}
	})
}

func TestContractReadViewMatchesOwner(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		for k := uint64(0); k < 50; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k * 7})
		}
		view, err := st.ReadView()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 50; k++ {
			v, ok, err := view.Get(k)
			if err != nil || !ok || v != k*7 {
				t.Fatalf("view.Get(%d) = (%d,%v,%v)", k, v, ok, err)
			}
		}
		n := 0
		if err := view.Scan(0, ^uint64(0), func(k, v uint64) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("view scan saw %d pairs, want 50", n)
		}
	})
}

func TestContractScrubPassCleanStore(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		for k := uint64(0); k < 200; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k})
		}
		sc := st.NewScrubPass()
		total := pangolin.ScrubReport{ChecksumsVerified: true}
		for i := 0; ; i++ {
			rep, done, err := sc.Step()
			if err != nil {
				t.Fatal(err)
			}
			total.Add(rep)
			if done {
				break
			}
			if i > 10000 {
				t.Fatal("scrub pass never completed")
			}
		}
		if total.BadObjects != 0 || total.Unrecovered != 0 {
			t.Fatalf("clean store scrubbed dirty: %+v", total)
		}
		if total.Objects == 0 {
			t.Fatal("scrub pass visited no objects")
		}
	})
}

// --- Snapshot contract -------------------------------------------------
//
// Every store implements OpenSnapshot; these tests pin its semantics: reads resolve at exactly the pinned generation while
// commits proceed, release (or eviction) fails reads with the typed
// ErrSnapshotTooOld, and the version-buffer gauges account for the pins.

// forEachBackendSnap runs fn over both backends crossed with an
// unordered (hashmap) and an ordered (btree) structure, so both the
// ordered overlay-merge scan and the unordered mask-and-append scan are
// covered.
func forEachBackendSnap(t *testing.T, fn func(t *testing.T, h harness)) {
	for _, structure := range []string{"hashmap", "btree"} {
		for _, h := range harnessesStruct(t, structure) {
			t.Run(h.name+"/"+structure, func(t *testing.T) { fn(t, h) })
		}
	}
}

func TestContractSnapshotPinnedReads(t *testing.T) {
	forEachBackendSnap(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		for k := uint64(0); k < 50; k++ {
			mustApply(t, st, store.Op{Kind: store.OpPut, K: k, V: k * 10})
		}
		sn, err := st.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if sn.Ordered() != st.Ordered() {
			t.Fatalf("snapshot Ordered() = %v, backend reports %v", sn.Ordered(), st.Ordered())
		}
		// Mutate every way a key can change after the pin: overwrite,
		// delete, insert.
		mustApply(t, st,
			store.Op{Kind: store.OpPut, K: 1, V: 999},
			store.Op{Kind: store.OpDel, K: 2},
			store.Op{Kind: store.OpPut, K: 100, V: 1},
		)
		// The live store serves the new state...
		if v, _ := mustGet(t, st, 1); v != 999 {
			t.Fatalf("live Get(1) = %d after overwrite", v)
		}
		if _, ok := mustGet(t, st, 2); ok {
			t.Fatal("live Get(2) still present after delete")
		}
		// ...while the snapshot still reads the pinned image: the
		// overwritten value, the deleted key, and no post-pin insert.
		if v, ok, err := sn.Get(st, 1); err != nil || !ok || v != 10 {
			t.Fatalf("snapshot Get(1) = (%d,%v,%v), want (10,true,nil)", v, ok, err)
		}
		if v, ok, err := sn.Get(st, 2); err != nil || !ok || v != 20 {
			t.Fatalf("snapshot Get(2) = (%d,%v,%v), want (20,true,nil)", v, ok, err)
		}
		if _, ok, err := sn.Get(st, 100); err != nil || ok {
			t.Fatalf("snapshot observed key 100, inserted after the pin (ok=%v err=%v)", ok, err)
		}
		// A full snapshot scan is exactly the pinned image — 50 pairs,
		// original values, ascending when the backend is ordered.
		got := make(map[uint64]uint64)
		last, ordered := uint64(0), true
		if err := sn.Scan(st, 0, ^uint64(0), func(k, v uint64) bool {
			if _, dup := got[k]; dup {
				t.Fatalf("snapshot scan yielded key %d twice", k)
			}
			if len(got) > 0 && k < last {
				ordered = false
			}
			last = k
			got[k] = v
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("snapshot scan yielded %d pairs, want 50", len(got))
		}
		for k := uint64(0); k < 50; k++ {
			if got[k] != k*10 {
				t.Fatalf("snapshot scan key %d = %d, want %d", k, got[k], k*10)
			}
		}
		if sn.Ordered() && !ordered {
			t.Fatal("ordered snapshot scan yielded out-of-order keys")
		}
		// Early stop is honored on the snapshot path too.
		n := 0
		if err := sn.Scan(st, 0, ^uint64(0), func(k, v uint64) bool { n++; return n < 5 }); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("snapshot scan continued past a false return: %d pairs", n)
		}
		// Gauges while pinned: one pin, and exactly the three superseded
		// versions the mutation batch preserved for it.
		if s := st.Stats(); s.SnapshotPins != 1 || s.VersionsRetained != 3 {
			t.Fatalf("pinned gauges = %d pins / %d versions, want 1 / 3", s.SnapshotPins, s.VersionsRetained)
		}
		// Release is idempotent; reads after it fail typed; the buffer
		// prunes to empty once nothing is pinned.
		sn.Release()
		sn.Release()
		if _, _, err := sn.Get(st, 1); !errors.Is(err, store.ErrSnapshotTooOld) {
			t.Fatalf("Get after Release = %v, want ErrSnapshotTooOld", err)
		}
		if err := sn.Scan(st, 0, ^uint64(0), func(k, v uint64) bool { return true }); !errors.Is(err, store.ErrSnapshotTooOld) {
			t.Fatalf("Scan after Release = %v, want ErrSnapshotTooOld", err)
		}
		if s := st.Stats(); s.SnapshotPins != 0 || s.VersionsRetained != 0 {
			t.Fatalf("released gauges = %d pins / %d versions, want 0 / 0", s.SnapshotPins, s.VersionsRetained)
		}
	})
}

// TestContractSnapshotPinEviction: the pin cap bounds how many distinct
// generations stay readable; opening past it evicts the oldest pin,
// whose snapshot then fails with the typed staleness error rather than
// silently reading a newer state.
func TestContractSnapshotPinEviction(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		mustApply(t, st, store.Op{Kind: store.OpPut, K: 0, V: 0})
		snaps := make([]*store.Snapshot, 0, store.DefaultMaxPins+1)
		for i := 0; i <= store.DefaultMaxPins; i++ {
			sn, err := st.OpenSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, sn)
			// Advance the generation so every pin is distinct.
			mustApply(t, st, store.Op{Kind: store.OpPut, K: 0, V: uint64(i + 1)})
		}
		if _, _, err := snaps[0].Get(st, 0); !errors.Is(err, store.ErrSnapshotTooOld) {
			t.Fatalf("evicted snapshot read = %v, want ErrSnapshotTooOld", err)
		}
		// The surviving pins still resolve their exact images.
		want := uint64(store.DefaultMaxPins)
		if v, ok, err := snaps[len(snaps)-1].Get(st, 0); err != nil || !ok || v != want {
			t.Fatalf("newest snapshot Get = (%d,%v,%v), want (%d,true,nil)", v, ok, err, want)
		}
		for _, sn := range snaps {
			sn.Release()
		}
		if s := st.Stats(); s.SnapshotPins != 0 || s.VersionsRetained != 0 {
			t.Fatalf("gauges after release-all = %d pins / %d versions", s.SnapshotPins, s.VersionsRetained)
		}
	})
}

// TestContractSnapshotTorture races paginated snapshot scans and
// backup-style full scans against whole-image Apply batches, scrub
// steps, and mid-stream CrashSave (run it with -race). Every batch
// rewrites every key with the round number, so a consistent snapshot
// must see exactly one round across all keys and all pages — observing
// two rounds means the pin leaked a later commit. The RWMutex gate
// enforces the View exclusion contract the way the shard layer does:
// mutators exclusive, snapshot readers shared.
func TestContractSnapshotTorture(t *testing.T) {
	forEachBackendSnap(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		const nKeys = 96
		batch := func(r uint64) []store.Op {
			ops := make([]store.Op, nKeys)
			for k := range ops {
				ops[k] = store.Op{Kind: store.OpPut, K: uint64(k), V: r}
			}
			return ops
		}
		if _, err := st.Apply(batch(0)); err != nil {
			t.Fatal(err)
		}

		var gate sync.RWMutex
		stop := make(chan struct{})
		errc := make(chan error, 8)
		var writerWG, readerWG sync.WaitGroup
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for r := uint64(1); ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				gate.Lock()
				_, err := st.Apply(batch(r))
				if err == nil && r%5 == 0 {
					_, _, err = st.ScrubStep()
				}
				if err == nil && r%9 == 0 {
					err = st.CrashSave(int64(r))
				}
				gate.Unlock()
				if err != nil {
					errc <- fmt.Errorf("writer round %d: %w", r, err)
					return
				}
			}
		}()
		for g := 0; g < 3; g++ {
			readerWG.Add(1)
			go func(g int) {
				defer readerWG.Done()
				for i := 0; i < 15; i++ {
					gate.RLock()
					sn, err := st.OpenSnapshot()
					gate.RUnlock()
					if err != nil {
						errc <- err
						return
					}
					rounds := make(map[uint64]bool)
					count := 0
					var scanErr error
					if g == 0 {
						// Backup-style: one full pass over the keyspace.
						gate.RLock()
						scanErr = sn.Scan(st, 0, ^uint64(0), func(k, v uint64) bool {
							rounds[v] = true
							count++
							return true
						})
						gate.RUnlock()
					} else {
						// Paginated: disjoint range pages with the gate
						// dropped between them, so the writer commits more
						// rounds mid-scan — exactly the smear the pinned
						// generation must mask.
						for lo := uint64(0); lo < nKeys; lo += 13 {
							hi := lo + 12
							gate.RLock()
							scanErr = sn.Scan(st, lo, hi, func(k, v uint64) bool {
								rounds[v] = true
								count++
								return true
							})
							gate.RUnlock()
							if scanErr != nil {
								break
							}
							runtime.Gosched()
						}
					}
					sn.Release()
					if scanErr != nil {
						// Retention caps may evict a long-lived pin under
						// heavy commit churn; that is the typed, allowed
						// outcome — anything else fails the test.
						if errors.Is(scanErr, store.ErrSnapshotTooOld) {
							continue
						}
						errc <- scanErr
						return
					}
					if len(rounds) != 1 {
						errc <- fmt.Errorf("snapshot smeared %d rounds: %v", len(rounds), rounds)
						return
					}
					if count != nKeys {
						errc <- fmt.Errorf("snapshot scan saw %d keys, want %d", count, nKeys)
						return
					}
				}
			}(g)
		}
		readerWG.Wait()
		close(stop)
		writerWG.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}

// TestContractApplyRejectsUnknownKind: a malformed batch must fail whole
// — no partial application.
func TestContractApplyRejectsUnknownKind(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h harness) {
		st := h.create(t, t.TempDir())
		defer st.Close()
		_, err := st.Apply([]store.Op{
			{Kind: store.OpPut, K: 1, V: 1},
			{Kind: 99, K: 2, V: 2},
		})
		if err == nil {
			t.Fatal("Apply accepted an unknown op kind")
		}
		if _, ok := mustGet(t, st, 1); ok {
			t.Fatal("a rejected batch partially applied")
		}
	})
}
