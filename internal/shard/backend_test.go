package shard

import (
	"errors"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestLogstoreSetRoundTrip runs the full data path (put/get/del/batch/
// scan/sync/reopen) on a set whose every shard uses the log backend.
// Open takes Options{} on purpose: the backend must be rediscovered
// from the on-disk shard-NNNN.log directories, not re-specified.
func TestLogstoreSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{Backend: "logstore"})
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
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
	ops := []BatchOp{
		{Kind: BatchPut, K: 1000, V: 42},
		{Kind: BatchGet, K: 1000},
		{Kind: BatchDel, K: 1000},
		{Kind: BatchGet, K: 1000},
	}
	res := s.Batch(ops)
	if res[1].Err != nil || !res[1].OK || res[1].V != 42 {
		t.Fatalf("batch read-your-write = %+v", res[1])
	}
	if res[3].Err != nil || res[3].OK {
		t.Fatalf("batch get-after-del = %+v", res[3])
	}
	st := s.Stats()
	if st.Backends != "logstore" {
		t.Fatalf("Backends = %q, want logstore", st.Backends)
	}
	for i, sh := range st.Shards {
		if sh.Backend != "logstore" {
			t.Fatalf("shard %d backend %q", i, sh.Backend)
		}
		if sh.Segments == 0 {
			t.Fatalf("shard %d reports zero segments", i)
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
	if got := s2.Stats().Backends; got != "logstore" {
		t.Fatalf("reopened Backends = %q, want logstore", got)
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
	// Scan the whole space and compare against the model (hashmap-named
	// structure on the log backend is unordered; Scan still must be
	// complete and duplicate-free).
	got := map[uint64]uint64{}
	lo := uint64(0)
	for {
		pairs, next, more, err := s2.Scan(lo, 301, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if _, dup := got[p.K]; dup {
				t.Fatalf("scan duplicated key %d", p.K)
			}
			got[p.K] = p.V
		}
		if !more {
			break
		}
		lo = next
	}
	if len(got) != len(model) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("scan key %d = %d, want %d", k, got[k], v)
		}
	}
}

// TestMixedBackendSet alternates pangolin and logstore shards in one
// set: both kinds must serve the same data path, stats must name both
// backends in shard order, and reopen must rediscover the layout.
func TestMixedBackendSet(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 4, Options{Backend: "pangolin,logstore"})
	for k := uint64(0); k < 400; k++ {
		if err := s.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Backends lists the distinct backends serving (shard order of first
	// appearance); per-shard assignment is in Shards[].Backend.
	if st.Backends != "pangolin,logstore" {
		t.Fatalf("Backends = %q", st.Backends)
	}
	for i, sh := range st.Shards {
		want := "pangolin"
		if i%2 == 1 {
			want = "logstore"
		}
		if sh.Backend != want {
			t.Fatalf("shard %d backend %q, want %q", i, sh.Backend, want)
		}
	}
	if st.Segments == 0 {
		t.Fatal("mixed set reports zero log segments")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	if got := s2.Stats().Backends; got != "pangolin,logstore" {
		t.Fatalf("reopened Backends = %q", got)
	}
	for k := uint64(0); k < 400; k++ {
		v, ok, err := s2.Get(k)
		if err != nil || !ok || v != k*3 {
			t.Fatalf("key %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// TestLogstoreCrashReopen crashes a log-backed set mid-load: everything
// synced must survive, the unsynced tail must recover to a prefix-
// consistent state per shard, and the recovered set must accept writes.
func TestLogstoreCrashReopen(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		s := newSet(t, dir, 2, Options{Backend: "logstore"})
		for k := uint64(0); k < 200; k++ {
			if err := s.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(200); k < 260; k++ {
			if err := s.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CrashSave(seed); err != nil {
			t.Fatal(err)
		}
		s.Abandon()

		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: open after crash: %v", seed, err)
		}
		for k := uint64(0); k < 200; k++ {
			v, ok, err := s2.Get(k)
			if err != nil || !ok || v != k+1 {
				t.Fatalf("seed %d: synced key %d = (%d,%v,%v)", seed, k, v, ok, err)
			}
		}
		// Unsynced keys may or may not have survived the cut, but any
		// that did must carry the value that was written.
		for k := uint64(200); k < 260; k++ {
			v, ok, err := s2.Get(k)
			if err != nil {
				t.Fatalf("seed %d: tail key %d: %v", seed, k, err)
			}
			if ok && v != k+1 {
				t.Fatalf("seed %d: tail key %d = %d, want %d", seed, k, v, k+1)
			}
		}
		if err := s2.Put(999, 999); err != nil {
			t.Fatalf("seed %d: post-recovery write: %v", seed, err)
		}
		if v, ok, _ := s2.Get(999); !ok || v != 999 {
			t.Fatalf("seed %d: post-recovery read = (%d,%v)", seed, v, ok)
		}
		s2.Abandon()
	}
}

// TestLogstoreMaintCompacts drives the background maintenance scheduler
// against an overwrite-heavy log shard with a tiny segment threshold:
// the same tick that scrubs pangolin shards must run the log backend's
// merge, so dead records get compacted away while data stays intact.
func TestLogstoreMaintCompacts(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 1, Options{
		Backend:         "logstore",
		LogSegmentBytes: 4 << 10,
		ScrubInterval:   time.Millisecond,
	})
	defer s.Abandon()
	// Keys 0..31 are written once and stay live forever; keys 32..63 are
	// overwritten every round. The oldest segment therefore carries a mix
	// of live and dead records, so compaction must COPY the live half
	// forward (merged_records), not just drop all-dead segments.
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		for k := uint64(32); k < 64; k++ {
			if err := s.Put(k, uint64(round)<<16|k); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Compactions > 0 && st.MergedRecords > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintenance never compacted with copy-forward: %+v", st.Shards[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	for k := uint64(0); k < 64; k++ {
		want := k
		if k >= 32 {
			want = uint64(39)<<16 | k
		}
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("post-compaction key %d = (%#x,%v,%v), want %#x", k, v, ok, err, want)
		}
	}
}

// TestDiscoverBackendsRejectsGaps pins the layout validation: a missing
// middle shard (or a shard present in both forms) must fail Open with a
// message naming the problem instead of silently renumbering.
func TestDiscoverBackendsRejectsGaps(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{Backend: "pangolin,logstore,pangolin"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	backends, err := DiscoverBackends(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"pangolin", "logstore", "pangolin"}; len(backends) != 3 ||
		backends[0] != want[0] || backends[1] != want[1] || backends[2] != want[2] {
		t.Fatalf("DiscoverBackends = %v, want %v", backends, want)
	}
	// Knock out the middle shard's on-disk form: discovery must fail.
	if err := os.RemoveAll(filepath.Join(dir, "shard-0001.log")); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverBackends(dir); err == nil ||
		!strings.Contains(err.Error(), "1") {
		t.Fatalf("gap not detected: %v", err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a set with a missing shard")
	}
}

// TestCreateRefusesExistingShards: Create must not write a new set beside
// the surviving shards of a damaged one (the result never reopens: the
// same index would appear in both forms), nor over a whole set, and the
// refusal must leave the directory exactly as it was. Only a missing or
// shard-free directory reports ErrNoShards, the state Create accepts.
func TestCreateRefusesExistingShards(t *testing.T) {
	dir := t.TempDir()
	if _, err := DiscoverBackends(dir); !errors.Is(err, ErrNoShards) {
		t.Fatalf("DiscoverBackends(empty) = %v, want ErrNoShards", err)
	}
	if _, err := DiscoverBackends(filepath.Join(dir, "missing")); !errors.Is(err, ErrNoShards) {
		t.Fatalf("DiscoverBackends(missing) = %v, want ErrNoShards", err)
	}
	s := newSet(t, dir, 3, Options{Backend: "logstore"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, 3, Options{Backend: "logstore"}); err == nil {
		t.Fatal("Create wrote a new set over a whole one")
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard-0001.log")); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	if s, err := Create(dir, 4, Options{}); err == nil {
		s.Abandon()
		t.Fatal("Create wrote a new set beside a damaged one")
	}
	if after := dirImage(t, dir); !maps.Equal(before, after) {
		t.Fatalf("refused Create changed the directory:\nbefore %v\nafter  %v", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
	}
	if _, err := DiscoverBackends(dir); err == nil || errors.Is(err, ErrNoShards) {
		t.Fatalf("DiscoverBackends(damaged) = %v, want the gap error", err)
	}
}

// dirImage maps every path under dir to its mode and contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		img[path] = d.Type().String()
		if !d.IsDir() {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			img[path] += string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}
