package shard

import (
	"encoding/json"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"github.com/pangolin-go/pangolin"
)

// TestKeyDistributionUniform checks that shard choice stays near-uniform
// even for the adversarial sequential key pattern, across several shard
// counts.
func TestKeyDistributionUniform(t *testing.T) {
	const keys = 1 << 17
	for _, n := range []int{2, 4, 7, 8, 16} {
		s := &Set{workers: make([]*worker, n)}
		counts := make([]int, n)
		for k := uint64(0); k < keys; k++ {
			counts[s.ShardOf(k)]++
		}
		mean := float64(keys) / float64(n)
		for i, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < -0.05 || dev > 0.05 {
				t.Errorf("n=%d shard %d got %d keys, %.1f%% off the mean %f",
					n, i, c, dev*100, mean)
			}
		}
	}
}

// TestShardOfStable pins the key→shard mapping: it is persisted implicitly
// in which pool holds which key, so changing mix() would orphan data in
// existing sets.
func TestShardOfStable(t *testing.T) {
	s := &Set{workers: make([]*worker, 4)}
	want := map[uint64]int{0: 0, 1: 1, 2: 2, 1 << 40: 0, ^uint64(0): 3}
	for k, shard := range want {
		if got := s.ShardOf(k); got != shard {
			t.Errorf("ShardOf(%d) = %d, want %d (mix() changed? that breaks existing sets)",
				k, got, shard)
		}
	}
}

func newSet(t *testing.T, dir string, n int, opts Options) *Set {
	t.Helper()
	s, err := Create(dir, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Abandon)
	return s
}

// TestFreshSetFootprint: a fresh set of pglserve's default shape — four
// pangolin shards of eight zones — occupies at most a tenth of its
// logical size on disk, because a save writes only the pages that hold
// data and leaves the rest of the capacity as holes. Skipped where the
// filesystem keeps no holes or reports no block counts.
func TestFreshSetFootprint(t *testing.T) {
	dir := t.TempDir()
	probe := filepath.Join(dir, "probe")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(probe, 1<<20); err != nil {
		t.Fatal(err)
	}
	if a, ok := diskBytes(t, probe); !ok || a >= 1<<20 {
		t.Skip("filesystem keeps no holes or reports no block counts")
	}
	os.Remove(probe)
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8
	s := newSet(t, dir, 4, Options{Pangolin: pangolin.Config{Geometry: geo}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pgl"))
	if err != nil || len(files) != 4 {
		t.Fatalf("shard files %v, %v; want 4", files, err)
	}
	var logical, disk int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := diskBytes(t, f)
		logical += fi.Size()
		disk += a
	}
	t.Logf("fresh set: %d bytes logical, %d on disk", logical, disk)
	if disk > logical/10 {
		t.Fatalf("fresh set occupies %d bytes of disk for %d logical, want at most a tenth", disk, logical)
	}
}

// diskBytes returns the bytes of disk the file at path occupies, and
// false where the platform does not report it.
func diskBytes(t *testing.T, path string) (int64, bool) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return 0, false
	}
	return st.Blocks * 512, true
}

// TestCreateOpenRoundTrip covers the clean path: create, populate, close,
// reopen, verify data and root metadata.
func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{Structure: "btree"})
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k, v := uint64(rng.Intn(300)), rng.Uint64()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for k := range model {
		if k%3 == 0 {
			ok, err := s.Del(k)
			if err != nil || !ok {
				t.Fatalf("del %d: %v %v", k, ok, err)
			}
			delete(model, k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	if s2.Structure() != "btree" {
		t.Fatalf("reopened structure %q, want btree", s2.Structure())
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened %d shards, want 3", s2.Len())
	}
	for k := uint64(0); k < 300; k++ {
		v, ok, err := s2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("key %d = (%d,%v), want (%d,%v)", k, v, ok, wantV, want)
		}
	}
	st := s2.Stats()
	if st.NumShards != 3 || len(st.Shards) != 3 {
		t.Fatalf("stats shards = %d/%d, want 3", st.NumShards, len(st.Shards))
	}
	if st.Gets+st.FastGets != 300 {
		t.Fatalf("stats gets = %d worker + %d fast, want 300 total", st.Gets, st.FastGets)
	}
	// With no writer running, an idle set must serve reads on the fast
	// path; only a busy gate or a fault may bounce reads to the worker.
	if st.FastGets == 0 {
		t.Fatal("fast path never engaged on an idle set")
	}
	if st.Objects == 0 {
		t.Fatal("stats report zero live objects after inserts")
	}
}

// TestShardLocalRecovery simulates a machine crash: committed data must
// survive each shard's crash image, recovery must reattach every shard,
// and a scrub must find nothing unrecoverable.
func TestShardLocalRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 4, Options{})
	model := map[uint64]uint64{}
	for k := uint64(0); k < 400; k++ {
		v := k * 2718281828459045
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	// Power fails on the whole machine; the process dies without a sync.
	if err := s.CrashSave(42); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	for k, want := range model {
		v, ok, err := s2.Get(k)
		if err != nil {
			t.Fatalf("key %d after recovery: %v", k, err)
		}
		if !ok || v != want {
			t.Fatalf("key %d after recovery = (%d,%v), want (%d,true): committed data lost", k, v, ok, want)
		}
	}
	rep, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub after recovery: %d unrecoverable objects (%+v)", rep.Unrecovered, rep)
	}
	if rep.Objects == 0 {
		t.Fatal("scrub after recovery examined zero objects")
	}
}

// TestCrashDuringLoadRecovers crashes while writers are mid-flight: every
// shard must reopen and pass scrub, and every key the test observed as
// committed before the crash snapshot must be present.
func TestCrashDuringLoadRecovers(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 2, Options{})
	var committed sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(g) << 32; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(k, k^0xDEAD); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
				committed.Store(k, k^0xDEAD)
			}
		}(g)
	}
	// Let some writes land, then snapshot a crash image while writers run.
	for {
		st := s.Stats()
		if st.Puts >= 200 {
			break
		}
	}
	// Freeze the committed set BEFORE crashing: everything committed by
	// now is durable, so it must appear in every shard's later crash
	// image. (Keys committed during/after CrashSave may or may not make
	// their shard's snapshot, so they are not checked.)
	frozen := map[uint64]uint64{}
	committed.Range(func(k, v any) bool {
		frozen[k.(uint64)] = v.(uint64)
		return true
	})
	if err := s.CrashSave(7); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	s.Abandon()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	rep, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub after mid-load crash: %d unrecoverable (%+v)", rep.Unrecovered, rep)
	}
	for k, want := range frozen {
		v, ok, err := s2.Get(k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok || v != want {
			t.Fatalf("pre-crash key %d = (%d,%v), want (%d,true): committed data lost", k, v, ok, want)
		}
	}
}

// TestConcurrentPutGetAcrossShards hammers one set from many goroutines
// with disjoint key ranges; run under -race this checks the worker
// channel discipline.
func TestConcurrentPutGetAcrossShards(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 4, Options{Structure: "skiplist"})
	defer s.Abandon()
	const goroutines = 8
	ops := 300
	if testing.Short() {
		ops = 100
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 1_000_000
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				k := base + uint64(rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64()
					if err := s.Put(k, v); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					model[k] = v
				case 1:
					ok, err := s.Del(k)
					if err != nil {
						t.Errorf("del: %v", err)
						return
					}
					if _, want := model[k]; ok != want {
						t.Errorf("del %d = %v, want %v", k, ok, want)
						return
					}
					delete(model, k)
				case 2:
					v, ok, err := s.Get(k)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					wantV, want := model[k]
					if ok != want || (ok && v != wantV) {
						t.Errorf("get %d = (%d,%v), want (%d,%v)", k, v, ok, wantV, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Errors != 0 {
		t.Fatalf("stats report %d errors", st.Errors)
	}
}

// TestOpenRejectsShuffledFiles swaps two shard files; the roots record
// each shard's index, so Open must refuse the directory.
func TestOpenRejectsShuffledFiles(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 2, Options{})
	if err := s.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := pangolin.ShardFile(dir, 0), pangolin.ShardFile(dir, 1)
	tmp := filepath.Join(dir, "tmp")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a directory with shuffled shard files")
	}
}

// TestUseAfterClose: operations on a closed set fail cleanly instead of
// hanging or panicking.
func TestUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 2, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 1); err == nil {
		t.Fatal("Put on closed set succeeded")
	}
	if _, _, err := s.Get(1); err == nil {
		t.Fatal("Get on closed set succeeded")
	}
}

// The STATS and SCRUB key sets before Counters replaced the hand-summed
// fields, sorted. A shard entry used to omit the gauges in
// shardOmittedKeys while they were zero; it may now carry them, but no
// key may disappear from any of the three.
var (
	statsKeys = []string{"backends", "batched_ops", "batches", "bg_repairs", "bytes", "commit_waits",
		"compactions", "dead_records", "dels", "errors", "fast_fallbacks", "fast_faults", "fast_gets",
		"fast_hits", "fast_scan_pairs", "fast_scans", "gets", "group_fallbacks", "hits",
		"last_full_pass_unix", "merged_records", "num_shards", "objects", "puts", "quarantined_segments",
		"scan_fallbacks", "scan_faults", "scan_pairs", "scans", "scrub_backoffs", "scrub_errors",
		"scrub_steps", "segments", "shards", "snap_scan_pairs", "snap_scans", "snapshot_pins",
		"structure", "versions_retained"}
	shardKeys = []string{"backend", "batched_ops", "batches", "bg_repairs", "bytes", "commit_waits",
		"dels", "errors", "fast_fallbacks", "fast_faults", "fast_gets", "fast_hits", "fast_scan_pairs",
		"fast_scans", "gets", "group_fallbacks", "hits", "index", "last_full_pass_unix", "objects", "puts",
		"scan_fallbacks", "scan_faults", "scan_pairs", "scans", "scrub_backoffs", "scrub_errors",
		"scrub_steps", "snap_scan_pairs", "snap_scans"}
	shardOmittedKeys = []string{"compactions", "dead_records", "merged_records", "quarantined_segments",
		"segments", "snapshot_pins", "versions_retained"}
	healthKeys = []string{"bg_repairs", "last_full_pass_unix", "quarantined_segments", "scrub_backoffs",
		"scrub_errors", "scrub_steps"}
)

// TestStatsShape pins the JSON shape of STATS (Set.Stats) and of SCRUB's
// health block (Set.ScrubHealth), and the aggregate last_full_pass_unix:
// the oldest shard's, 0 while any shard has yet to finish a pass.
func TestStatsShape(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	defer s.Abandon()
	if err := s.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	type statsJSON struct {
		LastFullPass int64                        `json:"last_full_pass_unix"`
		Shards       []map[string]json.RawMessage `json:"shards"`
	}
	check := func() statsJSON {
		t.Helper()
		body, err := json.Marshal(s.Stats())
		if err != nil {
			t.Fatal(err)
		}
		var agg map[string]json.RawMessage
		var st statsJSON
		if err := json.Unmarshal(body, &agg); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(maps.Keys(agg)); !slices.Equal(got, statsKeys) {
			t.Fatalf("STATS keys = %q, want %q", got, statsKeys)
		}
		for i, sh := range st.Shards {
			for _, k := range shardKeys {
				if _, ok := sh[k]; !ok {
					t.Fatalf("shard %d lost key %q", i, k)
				}
			}
			for k := range sh {
				if !slices.Contains(shardKeys, k) && !slices.Contains(shardOmittedKeys, k) {
					t.Fatalf("shard %d has new key %q", i, k)
				}
			}
		}
		body, err = json.Marshal(s.ScrubHealth())
		if err != nil {
			t.Fatal(err)
		}
		var health map[string]json.RawMessage
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(maps.Keys(health)); !slices.Equal(got, healthKeys) {
			t.Fatalf("SCRUB health keys = %q, want %q", got, healthKeys)
		}
		return st
	}
	lastPass := func(sh map[string]json.RawMessage) int64 {
		var v int64
		if err := json.Unmarshal(sh["last_full_pass_unix"], &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Shard 0 alone completes a pass: the aggregate stays 0.
	for i := 0; ; i++ {
		r := s.workers[0].do(request{op: opScrubStep})
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.ok {
			break
		}
		if i == 1<<16 {
			t.Fatal("shard 0's scrub pass never completed")
		}
	}
	st := check()
	if lastPass(st.Shards[0]) == 0 || lastPass(st.Shards[1]) != 0 || st.LastFullPass != 0 {
		t.Fatalf("last passes: shards %d, %d, aggregate %d; want >0, 0, 0",
			lastPass(st.Shards[0]), lastPass(st.Shards[1]), st.LastFullPass)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	st = check()
	if oldest := min(lastPass(st.Shards[0]), lastPass(st.Shards[1])); oldest == 0 || st.LastFullPass != oldest {
		t.Fatalf("aggregate last pass %d, want the oldest shard's %d", st.LastFullPass, oldest)
	}
}
