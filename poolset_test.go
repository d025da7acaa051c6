package pangolin_test

import (
	"os"
	"testing"

	"github.com/pangolin-go/pangolin"
)

// allShards lists the indices of a dense n-shard set.
func allShards(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// createPoolSet creates a dense n-shard set and saves every shard, so the
// set is durable on return.
func createPoolSet(t *testing.T, dir string, n int, cfg pangolin.Config) *pangolin.PoolSet {
	t.Helper()
	s, err := pangolin.NewPoolSetShards(dir, n, allShards(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, s)
	return s
}

func saveAll(t *testing.T, s *pangolin.PoolSet) {
	t.Helper()
	for i := 0; i < s.Len(); i++ {
		if err := s.SaveShard(i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolSetLifecycle covers create → write → save → close → open with
// data in distinct pools, plus the guard against overwriting a set.
func TestPoolSetLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := pangolin.DefaultConfig()
	s := createPoolSet(t, dir, 3, cfg)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	type root struct{ Value uint64 }
	for i := 0; i < s.Len(); i++ {
		p := s.Pool(i)
		oid, err := pangolin.Root[root](p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(tx *pangolin.Tx) error {
			r, err := pangolin.Open[root](tx, oid)
			if err != nil {
				return err
			}
			r.Value = 100 + uint64(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	saveAll(t, s)
	s.Close()

	if _, err := pangolin.NewPoolSetShards(dir, 2, allShards(2), cfg); err == nil {
		t.Fatal("NewPoolSetShards overwrote an existing set")
	}

	s2, err := pangolin.OpenPoolSetShards(dir, 3, allShards(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	for i := 0; i < s2.Len(); i++ {
		p := s2.Pool(i)
		oid, err := pangolin.Root[root](p, 7)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pangolin.GetFromPool[root](p, oid)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != 100+uint64(i) {
			t.Fatalf("pool %d root = %d, want %d", i, r.Value, 100+uint64(i))
		}
		if _, err := p.Scrub(); err != nil {
			t.Fatalf("scrub pool %d: %v", i, err)
		}
	}
}

// TestPoolSetCrashSave: a shard's crash image is its saved image. Shard
// devices keep no persistence tracking, created or opened, so a crash
// image is taken as a save between transactions, where every line is
// flushed and fenced; it reopens through recovery with every committed
// value.
func TestPoolSetCrashSave(t *testing.T) {
	dir := t.TempDir()
	cfg := pangolin.DefaultConfig()
	s := createPoolSet(t, dir, 2, cfg)
	type root struct{ Value uint64 }
	oids := make([]pangolin.OID, s.Len())
	for i := 0; i < s.Len(); i++ {
		p := s.Pool(i)
		if p.Device().Options().TrackPersistence {
			t.Fatalf("created shard %d tracks persistence", i)
		}
		var err error
		oids[i], err = pangolin.Root[root](p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(tx *pangolin.Tx) error {
			r, err := pangolin.Open[root](tx, oids[i])
			if err != nil {
				return err
			}
			r.Value = 4242
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveShard(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := pangolin.OpenPoolSetShards(dir, 2, allShards(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < s2.Len(); i++ {
		if s2.Pool(i).Device().Options().TrackPersistence {
			t.Fatalf("opened shard %d tracks persistence", i)
		}
		r, err := pangolin.GetFromPool[root](s2.Pool(i), oids[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != 4242 {
			t.Fatalf("pool %d lost committed root value: %d", i, r.Value)
		}
	}
}

// TestOpenPoolSetErrors: an empty directory and a missing shard file are
// rejected.
func TestOpenPoolSetErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := pangolin.OpenPoolSetShards(dir, 1, allShards(1), pangolin.DefaultConfig()); err == nil {
		t.Fatal("OpenPoolSetShards accepted an empty directory")
	}
	createPoolSet(t, dir, 2, pangolin.DefaultConfig()).Close()
	if err := os.Remove(pangolin.ShardFile(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := pangolin.OpenPoolSetShards(dir, 2, allShards(2), pangolin.DefaultConfig()); err == nil {
		t.Fatal("OpenPoolSetShards accepted a directory with a missing shard")
	}
}
