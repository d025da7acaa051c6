package pangolin

import (
	"fmt"
	"os"
	"path/filepath"
)

// PoolSet manages a family of sibling pools ("shards") that persist as one
// snapshot file per shard inside a directory. Sharding is Pangolin's
// scaling mechanism for concurrent services: transactions are
// per-goroutine and two concurrent transactions must not touch the same
// object (§3.4), so a service that wants parallel commits partitions its
// data across independent pools and gives each pool a single owner
// goroutine. internal/shard builds that worker layer and discovers a
// set's layout; PoolSet supplies the storage substrate: per-shard
// create/open/close and snapshot-per-shard durability.
//
// Shard files are named shard-0000.pgl, shard-0001.pgl, … A set may be
// SPARSE: in a mixed-backend service (internal/store) only some shard
// indices are Pangolin pools — the rest belong to other engines that
// keep their own files in the same directory — so NewPoolSetShards and
// OpenPoolSetShards populate just the indices they are given and leave
// nil holes. Len reports the full set size; the per-index operations
// must only be called on populated slots.
type PoolSet struct {
	dir   string
	pools []*Pool
}

// ShardFile returns the snapshot path of shard i within dir.
func ShardFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.pgl", i))
}

// NewPoolSetShards creates fresh pools at the given indices of an
// n-shard set in dir (created if missing), leaving the other slots nil
// for a different engine's shards. No shard file is written until
// SaveShard, so a caller that initializes pool contents right away pays
// for one snapshot write, not two. It refuses to overwrite an existing
// shard file at a requested index.
func NewPoolSetShards(dir string, n int, indices []int, cfg Config) (*PoolSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pangolin: pool set needs at least 1 shard, got %d", n)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	s := &PoolSet{dir: dir, pools: make([]*Pool, n)}
	for _, i := range indices {
		if i < 0 || i >= n {
			s.Close()
			return nil, fmt.Errorf("pangolin: shard index %d out of range [0,%d)", i, n)
		}
		if s.pools[i] != nil {
			s.Close()
			return nil, fmt.Errorf("pangolin: duplicate shard index %d", i)
		}
		if _, err := os.Stat(ShardFile(dir, i)); err == nil {
			s.Close()
			return nil, fmt.Errorf("pangolin: shard file %s already exists", ShardFile(dir, i))
		}
		p, err := Create(cfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("pangolin: create shard %d: %w", i, err)
		}
		s.pools[i] = p
	}
	return s, nil
}

// OpenPoolSetShards opens the shard files at the given indices of an
// n-shard set (running crash recovery on each) and leaves the other
// slots nil. The caller supplies the set size and membership — in a
// mixed-backend directory the other indices belong to other engines, so
// there is no file count to discover it from.
func OpenPoolSetShards(dir string, n int, indices []int, cfg Config) (*PoolSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pangolin: pool set needs at least 1 shard, got %d", n)
	}
	s := &PoolSet{dir: dir, pools: make([]*Pool, n)}
	for _, i := range indices {
		if i < 0 || i >= n {
			s.Close()
			return nil, fmt.Errorf("pangolin: shard index %d out of range [0,%d)", i, n)
		}
		p, err := LoadFile(ShardFile(dir, i), cfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("pangolin: open shard %d: %w", i, err)
		}
		s.pools[i] = p
	}
	return s, nil
}

// Len returns the number of shards in the set, populated or not.
func (s *PoolSet) Len() int { return len(s.pools) }

// Pool returns shard i's pool (nil for an unpopulated index of a sparse
// set).
func (s *PoolSet) Pool(i int) *Pool { return s.pools[i] }

// SaveShard persists shard i to its snapshot file. The shard must have no
// transaction in flight; in a sharded service, call from the shard's owner
// goroutine.
func (s *PoolSet) SaveShard(i int) error {
	return s.pools[i].SaveFile(ShardFile(s.dir, i))
}

// CrashSaveShard simulates a power failure on shard i: it writes a crash
// image of the shard's device — unpersisted cache lines treated per mode —
// to the shard file, without disturbing the live pool. Reopening the file
// runs crash recovery, exactly as a machine restart would.
func (s *PoolSet) CrashSaveShard(i int, mode CrashMode, seed int64) error {
	img := s.pools[i].Device().CrashCopy(mode, seed)
	return img.SaveFile(ShardFile(s.dir, i))
}

// Close shuts every shard pool down without saving. Call SaveShard first
// for a clean shutdown; skip it to model a crash.
func (s *PoolSet) Close() {
	for _, p := range s.pools {
		if p != nil {
			p.Close()
		}
	}
	s.pools = nil
}
