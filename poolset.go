package pangolin

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/pangolin-go/pangolin/internal/nvm"
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
// A shard's device keeps no persistence tracking: its owner saves it only
// between transactions, where every store is flushed and fenced, so the
// save is also its crash image. Device().CrashCopy panics on a shard.
// Its memory is a mapping outside the Go heap (nvm.Options), which the
// set owns: Close releases it, and with it every view into the shard.
//
// Shard files are named shard-0000.pgl, shard-0001.pgl, …
type PoolSet struct {
	dir   string
	pools []*Pool
}

// ShardFile returns the snapshot path of shard i within dir.
func ShardFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.pgl", i))
}

// NewPoolSetShards creates fresh pools at the given indices of an
// n-shard set in dir (created if missing), leaving the other slots nil.
// No shard file is written until
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
		dev := nvm.New(cfg.geometry().PoolSize(), nvm.Options{})
		p, err := CreateOnDevice(dev, cfg)
		if err != nil {
			dev.Close()
			s.Close()
			return nil, fmt.Errorf("pangolin: create shard %d: %w", i, err)
		}
		s.pools[i] = p
	}
	return s, nil
}

// OpenPoolSetShards opens the shard files at the given indices of an
// n-shard set (running crash recovery on each) and leaves the other
// slots nil. The caller supplies the set size and membership.
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
		p, err := loadFile(ShardFile(dir, i), cfg, nvm.Options{})
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

// Pool returns shard i's pool (nil for an index not populated).
func (s *PoolSet) Pool(i int) *Pool { return s.pools[i] }

// SaveShard persists shard i to its snapshot file. The shard must have no
// transaction in flight; in a sharded service, call from the shard's owner
// goroutine.
func (s *PoolSet) SaveShard(i int) error {
	return s.pools[i].SaveFile(ShardFile(s.dir, i))
}

// Close shuts every shard pool down without saving and releases its
// device's memory, so nothing may still read a shard: in a sharded
// service, stop each shard's owner and readers first. Call SaveShard
// first for a clean shutdown; skip it to model a crash.
func (s *PoolSet) Close() {
	for _, p := range s.pools {
		if p != nil {
			p.Close()
		}
	}
	s.pools = nil
}
