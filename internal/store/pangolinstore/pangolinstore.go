// Package pangolinstore adapts the paper's engine — a Pangolin pool
// holding one of the six persistent kv structures over a simulated NVMM
// device — to the store.Store interface. This is the integrity-heavy
// backend: every commit maintains per-object checksums and zone parity,
// reads verify what they return, and corruption heals online, so it
// also implements the optional store.FaultInjector.
//
// Each shard's pool carries a persistent root object recording which kv
// structure the shard holds, the shard's index and the set size, and
// the structure's anchor OID, so Open can reattach and can reject a
// snapshot restored from the wrong set. Pool snapshot files live in a
// pangolin.PoolSet; the Store's Save/CrashSave delegate to the set's
// per-shard persistence so saves stay on the owner goroutine. A crash
// image is the saved image (see CrashSave).
package pangolinstore

import (
	"fmt"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// rootMagic guards shard roots against foreign pools.
const rootMagic uint64 = 0x5348415244303031 // "SHARD001"

// rootType is the root object's Pangolin type id.
const rootType = 0x53

// shardRoot is each shard pool's persistent root object.
type shardRoot struct {
	Magic     uint64
	Structure uint64 // registry ID of the kv structure
	Index     uint64 // this shard's index
	Count     uint64 // total shards in the set
	MapAnchor pangolin.OID
}

// Store is one shard's Pangolin engine: the pool, the kv structure
// instance attached to it, and the PoolSet slot its snapshots persist
// through. It satisfies store.Store and store.FaultInjector.
type Store struct {
	pools     *pangolin.PoolSet
	idx       int
	pool      *pangolin.Pool
	m         kv.Map
	structure registry.Structure
	scrubCfg  pangolin.ScrubberConfig
	scrub     *pangolin.Scrubber   // ScrubStep's background cursor, with scrubCfg's bounds
	vb        *store.VersionBuffer // pinned-snapshot version retention
	resBuf    []store.Result       // Apply's result scratch; valid until the next Apply
}

var (
	_ store.Store         = (*Store)(nil)
	_ store.FaultInjector = (*Store)(nil)
)

// Create initializes shard idx of pools with a fresh structure instance
// and writes the shard root. The pool is not durable until Save.
func Create(pools *pangolin.PoolSet, idx int, structure registry.Structure, scrubCfg pangolin.ScrubberConfig) (*Store, error) {
	p := pools.Pool(idx)
	m, err := structure.New(p)
	if err != nil {
		return nil, fmt.Errorf("new %s: %w", structure.Name, err)
	}
	if err := writeRoot(p, shardRoot{
		Magic:     rootMagic,
		Structure: structure.ID,
		Index:     uint64(idx),
		Count:     uint64(pools.Len()),
		MapAnchor: m.Anchor(),
	}); err != nil {
		return nil, fmt.Errorf("root: %w", err)
	}
	return &Store{pools: pools, idx: idx, pool: p, m: m, structure: structure, scrubCfg: scrubCfg,
		scrub: p.NewScrubber(scrubCfg), vb: store.NewVersionBuffer()}, nil
}

// Open reattaches shard idx of pools from its persistent root,
// validating that the pool really is shard idx of a pools.Len()-shard
// set (a file restored from the wrong set fails here, not at first
// lookup).
func Open(pools *pangolin.PoolSet, idx int, scrubCfg pangolin.ScrubberConfig) (*Store, error) {
	p := pools.Pool(idx)
	root, err := readRoot(p)
	if err != nil {
		return nil, err
	}
	if root.Index != uint64(idx) || root.Count != uint64(pools.Len()) {
		return nil, fmt.Errorf("root says shard %d of %d (set has %d shards): shard files shuffled or mixed between sets",
			root.Index, root.Count, pools.Len())
	}
	structure, err := registry.ByID(root.Structure)
	if err != nil {
		return nil, err
	}
	m, err := structure.Attach(p, root.MapAnchor)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", structure.Name, err)
	}
	return &Store{pools: pools, idx: idx, pool: p, m: m, structure: structure, scrubCfg: scrubCfg,
		scrub: p.NewScrubber(scrubCfg), vb: store.NewVersionBuffer()}, nil
}

func writeRoot(p *pangolin.Pool, r shardRoot) error {
	oid, err := pangolin.Root[shardRoot](p, rootType)
	if err != nil {
		return err
	}
	return p.Run(func(tx *pangolin.Tx) error {
		v, err := pangolin.Open[shardRoot](tx, oid)
		if err != nil {
			return err
		}
		*v = r
		return nil
	})
}

func readRoot(p *pangolin.Pool) (shardRoot, error) {
	oid, err := pangolin.Root[shardRoot](p, rootType)
	if err != nil {
		return shardRoot{}, err
	}
	v, err := pangolin.GetFromPool[shardRoot](p, oid)
	if err != nil {
		return shardRoot{}, err
	}
	if v.Magic != rootMagic {
		return shardRoot{}, fmt.Errorf("pool is not a shard pool (magic %#x)", v.Magic)
	}
	return *v, nil
}

// Structure returns the kv structure this shard holds.
func (s *Store) Structure() registry.Structure { return s.structure }

// Pool exposes the underlying pool for tests (fault injection at known
// offsets); production callers stay behind store.Store.
func (s *Store) Pool() *pangolin.Pool { return s.pool }

// Map exposes the owner structure instance for tests.
func (s *Store) Map() kv.Map { return s.m }

// Backend implements store.Store.
func (s *Store) Backend() string { return store.BackendPangolin }

// Ordered implements store.Store.
func (s *Store) Ordered() bool { return s.structure.Ordered }

// Get implements store.Store: the owner-path verified Lookup, which may
// run online recovery.
func (s *Store) Get(k uint64) (uint64, bool, error) { return s.m.Lookup(k) }

// Scan implements store.Store, following the kv.Map iteration contract.
func (s *Store) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	return s.m.Scan(lo, hi, fn)
}

// Apply implements store.Store. A batch with any mutation runs inside a
// single pool transaction — one log persist, one fence, one parity pass
// — whose commit is the batch's linearization point; a read-only batch
// runs the owner Lookup per op and needs no transaction.
func (s *Store) Apply(ops []store.Op) ([]store.Result, error) {
	muts := 0
	for _, op := range ops {
		if op.Kind != store.OpGet {
			muts++
		}
	}
	// Store-owned result scratch (store.Store's Apply contract: valid
	// until the next Apply), reused across batches by the single owner
	// goroutine. Every element is assigned before any return path below.
	if cap(s.resBuf) < len(ops) {
		s.resBuf = make([]store.Result, len(ops))
	}
	res := s.resBuf[:len(ops)]
	if muts == 0 {
		for i, op := range ops {
			v, ok, err := s.m.Lookup(op.K)
			if err != nil {
				return nil, err
			}
			res[i] = store.Result{V: v, OK: ok}
		}
		return res, nil
	}
	if s.vb.Recording() {
		s.stagePreStates(ops)
	}
	err := s.pool.Run(func(tx *pangolin.Tx) error {
		for i, op := range ops {
			switch op.Kind {
			case store.OpPut:
				if err := s.m.InsertTx(tx, op.K, op.V); err != nil {
					return err
				}
				res[i] = store.Result{OK: true}
			case store.OpGet:
				v, ok, err := s.m.LookupTx(tx, op.K)
				if err != nil {
					return err
				}
				res[i] = store.Result{V: v, OK: ok}
			case store.OpDel:
				ok, err := s.m.RemoveTx(tx, op.K)
				if err != nil {
					return err
				}
				res[i] = store.Result{OK: ok}
			default:
				return fmt.Errorf("pangolinstore: unknown op kind %d", op.Kind)
			}
		}
		return nil
	})
	if err != nil {
		s.vb.Abort()
		return nil, err
	}
	s.vb.Commit()
	return res, nil
}

// stagePreStates preserves each mutated key's pre-batch state in the
// version buffer before the batch touches the structure (the owner
// Lookup sees exactly the prior committed state — the transaction has
// not started). A pre-state the engine cannot read even after online
// repair invalidates every pin rather than failing the commit: the
// affected snapshots report ErrSnapshotTooOld instead of silently
// missing a version.
func (s *Store) stagePreStates(ops []store.Op) {
	for _, op := range ops {
		if op.Kind == store.OpGet {
			continue
		}
		v, ok, err := s.m.Lookup(op.K)
		if err != nil {
			s.vb.Invalidate()
			return
		}
		s.vb.Stage(op.K, v, ok)
	}
}

// Save implements store.Store: persist this shard's snapshot file.
func (s *Store) Save() error { return s.pools.SaveShard(s.idx) }

// CrashSave implements store.Store. It runs on the owner between
// transactions, where every store has been flushed and fenced, so the
// crash image is the saved image: seed has no line to choose among.
func (s *Store) CrashSave(int64) error { return s.Save() }

// ScrubStep implements store.Store: one bounded step of the store's
// background scrubber. done reports a completed full pass, after which
// the cursor starts over.
func (s *Store) ScrubStep() (pangolin.ScrubReport, bool, error) { return s.scrub.Step() }

// Stats implements store.Store.
func (s *Store) Stats() store.Stats {
	live := s.pool.LiveObjects()
	return store.Stats{
		Backend:          store.BackendPangolin,
		Objects:          live.Objects,
		Bytes:            live.Bytes,
		SnapshotPins:     s.vb.Pins(),
		VersionsRetained: s.vb.Retained(),
	}
}

// Close implements store.Store.
func (s *Store) Close() error {
	s.pool.Close()
	return nil
}

// roView adapts a ReadView-attached structure instance to store.View.
type roView struct{ m kv.Map }

func (v roView) Get(k uint64) (uint64, bool, error) { return v.m.Lookup(k) }
func (v roView) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	return v.m.Scan(lo, hi, fn)
}

// ReadView implements store.ReadViewer: a second instance of the
// shard's structure attached to the pool's concurrent verified-read
// view (§3.3). Reads on it verify checksums from callers' goroutines
// and surface faults as typed errors instead of repairing.
func (s *Store) ReadView() (store.View, error) {
	m, err := s.structure.Attach(s.pool.ReadView(), s.m.Anchor())
	if err != nil {
		return nil, err
	}
	return roView{m: m}, nil
}

// OpenSnapshot pins the current committed generation (the store's
// applied-batch count) in the version buffer. Subsequent commits
// preserve each overwritten key's prior state there, so the snapshot
// resolves every read at exactly the pinned generation while group
// commits proceed.
func (s *Store) OpenSnapshot() (*store.Snapshot, error) {
	return s.vb.Open(s.Ordered()), nil
}

// InjectFault implements store.FaultInjector (§4.6): corrupt a
// pseudo-randomly chosen live object — even seeds scribble, odd seeds
// poison its page.
func (s *Store) InjectFault(seed int64) bool { return s.pool.InjectRandomFault(seed) }

// ForgetVerified implements store.Reverifier: the pool's next reads
// verify every object afresh, in checksummed modes.
func (s *Store) ForgetVerified() bool { return s.pool.ForgetVerified() }

// Repaired implements store.Reverifier: the pages the pool has repaired
// online.
func (s *Store) Repaired() uint64 { return s.pool.Stats().Recovered.Load() }

// scrubPass adapts a pangolin.Scrubber to store.ScrubPass.
type scrubPass struct{ sc *pangolin.Scrubber }

func (p scrubPass) Step() (pangolin.ScrubReport, bool, error) { return p.sc.Step() }

// NewScrubPass returns a fresh full-pass scrubber
// over the pool, stepped to its fixpoint by the owner.
func (s *Store) NewScrubPass() store.ScrubPass {
	return scrubPass{sc: s.pool.NewScrubber(s.scrubCfg)}
}

// ChecksumsVerified follows the pool's mode.
func (s *Store) ChecksumsVerified() bool { return s.pool.Mode().Checksums() }
