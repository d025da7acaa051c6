package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/logrec"
	"github.com/pangolin-go/pangolin/internal/mbuf"
	"github.com/pangolin-go/pangolin/internal/nvm"
	"github.com/pangolin-go/pangolin/internal/parity"
	"github.com/pangolin-go/pangolin/internal/striped"
)

// ErrNeedReopen reports a fault the engine cannot repair online (e.g. a
// media error encountered mid-commit, or concurrent double faults). The
// pool must be closed and reopened; open-time recovery will restore
// consistency. This mirrors the paper's rule that online recovery only
// runs for threads that have not started committing (§3.6).
var ErrNeedReopen = errors.New("core: unrecoverable online; reopen the pool to recover")

// ErrClosed reports use of a closed engine.
var ErrClosed = errors.New("core: pool is closed")

// Stats aggregates engine activity counters. All fields are safe to read
// concurrently.
type Stats struct {
	Commits    atomic.Uint64
	Aborts     atomic.Uint64
	EmptyTxs   atomic.Uint64
	Recovered  atomic.Uint64 // pages repaired online
	ScrubRuns  atomic.Uint64 // full scrub passes completed
	ScrubSteps atomic.Uint64 // incremental scrub steps executed
	ScrubFixed atomic.Uint64

	LoggedBytes atomic.Uint64

	// Checksum-verification accounting (Table 4): object bytes read with
	// and without verification. Striped: concurrent readers on several
	// cores add to one of them on every object access.
	VerifiedBytes   striped.Counter
	UnverifiedBytes striped.Counter

	// Micro-buffer DRAM accounting (§4.2).
	MBufBytes     atomic.Int64
	MBufHighWater atomic.Int64

	// Transaction size accounting (Table 3).
	TxCount      atomic.Uint64
	TxAllocBytes atomic.Uint64
	TxModBytes   atomic.Uint64
	TxFreeBytes  atomic.Uint64
	TxAllocObjs  atomic.Uint64
	TxObjects    atomic.Uint64
}

// ResetAccounting zeroes the verification and transaction-size counters
// (benchmark phase boundaries).
func (s *Stats) ResetAccounting() {
	s.VerifiedBytes.Reset()
	s.UnverifiedBytes.Reset()
	s.TxCount.Store(0)
	s.TxAllocBytes.Store(0)
	s.TxModBytes.Store(0)
	s.TxFreeBytes.Store(0)
	s.TxAllocObjs.Store(0)
	s.TxObjects.Store(0)
}

func (s *Stats) mbufAdd(n int64) {
	cur := s.MBufBytes.Add(n)
	for {
		hw := s.MBufHighWater.Load()
		if cur <= hw || s.MBufHighWater.CompareAndSwap(hw, cur) {
			return
		}
	}
}

// Engine is an open Pangolin pool.
type Engine struct {
	dev     *nvm.Device
	replica *nvm.Device // Pmemobj-R replica pool; nil otherwise
	geo     layout.Geometry
	lay     layout.Resolved // geo's zone arithmetic, resolved once
	mode    Mode
	opts    Options
	uuid    uint64
	canary  uint64

	hdrMu sync.Mutex
	hdr   layout.PoolHeader

	lm   *logrec.Manager
	heap *alloc.Allocator
	par  *parity.Parity

	// scratch recycles transactions' micro-buffer tables (mbuf.Cache).
	scratch mbuf.Cache

	// Freeze protocol (§3.6): frozen blocks new transactions and new
	// commit applies; commitGate drains in-flight applies and keeps
	// commits out of a freeze (reads take no part in it). recoverMu makes
	// online recovery single-flight.
	frozen     atomic.Bool
	frozenMu   sync.Mutex
	frozenCond *sync.Cond
	commitGate sync.RWMutex
	recoverMu  sync.Mutex

	closed atomic.Bool

	// verified is the verified-read table: one bit per 64-byte heap slot
	// (pool size / 512 bytes), indexed by an object's header offset. A
	// read (Get or GetRO) sets an object's bit once it has checked the
	// object's checksum, and later reads of the object skip the check
	// while the bit stands; a commit clears the bit of every object it
	// writes, allocates or frees (noteModified). Object bytes change only
	// inside commits, and no read of an object overlaps a commit to it
	// (a read view's caller excludes every mutation for the length of the
	// read; Get's caller does not read an object another goroutine is
	// committing), so a set bit means exactly
	// "verified since the last modification": no commit to another object
	// ever clears it and no commit to this one leaves it set. The owner
	// path and every read view share the table. Nil in modes without
	// checksums.
	verified []atomic.Uint64

	stats Stats
}

// verifiedBit returns the table word and mask for the object whose header
// is at hoff (slots are 64-byte aligned, so hoff/64 numbers them).
func (e *Engine) verifiedBit(hoff uint64) (*atomic.Uint64, uint64) {
	slot := hoff / 64
	return &e.verified[slot/64], 1 << (slot % 64)
}

// noteModified records that a commit changed (or allocated, or freed) the
// object at OID offset off: its next concurrent read verifies it afresh.
func (e *Engine) noteModified(off uint64) {
	w, bit := e.verifiedBit(off - layout.ObjHeaderSize)
	if w.Load()&bit != 0 {
		w.And(^bit)
	}
}

// ForgetVerified clears the verified-read table, so the next read of each
// object verifies its checksum afresh — and, on the owner path, repairs
// it from parity on a mismatch. A caller that met corruption behind an
// object verified before the damage (a scribbled pointer, followed
// unverified) re-verifies its path this way instead of scrubbing the
// pool. It reports false in modes without checksums: nothing is
// re-verified there.
func (e *Engine) ForgetVerified() bool {
	for i := range e.verified {
		e.verified[i].Store(0)
	}
	return e.verified != nil
}

// Create formats a pool on dev with the given geometry and opens it.
// dev must be zeroed unless opts.Zero is set (zone parity starts from the
// all-zero invariant; zeroing cost is the §4.2 one-time pool-init
// latency). For PmemobjR a replica device of equal size is created
// internally.
func Create(dev *nvm.Device, geo layout.Geometry, opts Options) (*Engine, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if dev.Size() < geo.PoolSize() {
		return nil, fmt.Errorf("core: device %d B smaller than pool %d B", dev.Size(), geo.PoolSize())
	}
	if opts.Zero {
		dev.ZeroAll()
	}
	var ub [8]byte
	if _, err := rand.Read(ub[:]); err != nil {
		return nil, fmt.Errorf("core: generating pool UUID: %w", err)
	}
	uuid := binary.LittleEndian.Uint64(ub[:])
	if uuid == 0 {
		uuid = 1
	}
	hdr := layout.PoolHeader{
		Magic:   layout.Magic,
		Version: layout.Version,
		Flags:   headerFlags(opts.Mode),
		UUID:    uuid,
		Seq:     1,
		Geo:     geo,
	}
	img := layout.EncodePoolHeader(hdr)
	dev.WriteAt(0, img)
	dev.WriteAt(layout.PageSize, img)
	dev.Persist(0, 2*layout.PageSize)
	// Empty (valid) bad-page records.
	rec, err := layout.EncodeBadPageRecord(layout.BadPageRecord{})
	if err != nil {
		return nil, err
	}
	dev.WriteAt(layout.BadPageRecOff(), rec)
	dev.WriteAt(layout.BadPageRecReplicaOff(), rec)
	dev.Persist(layout.BadPageRecOff(), 2*layout.PageSize)
	logrec.Format(dev, geo)
	if err := alloc.Format(dev, geo); err != nil {
		return nil, err
	}
	e, err := newEngine(dev, hdr, opts)
	if err != nil {
		return nil, err
	}
	if opts.Mode.Parity() {
		// Establish the parity invariant over the freshly written CM
		// arrays (everything else is zero).
		cmSpan := geo.CMChunks() * geo.ChunkSize
		for z := uint64(0); z < geo.NumZones; z++ {
			if err := e.par.RecomputeColumn(z, 0, cmSpan); err != nil {
				return nil, err
			}
		}
	}
	if opts.Mode.ReplicaPool() {
		e.replica = nvm.New(dev.Size(), dev.Options())
		e.replica.WriteAt(0, dev.Slice(0, dev.Size()))
		e.replica.Persist(0, dev.Size())
		e.lm.SetMirror(e.replica) // whole-pool mirroring includes logs
	}
	return e, nil
}

// Open opens an existing pool on dev, running crash recovery: repairing
// recorded bad pages and known-poisoned pages, replaying committed redo
// logs, rolling back active undo logs, and restoring parity for every
// range the recovery touched. opts.Mode must match the mode the pool was
// created with. For PmemobjR, replica supplies the replica pool (pass the
// device returned by ReplicaDevice at create time); primary pages lost to
// media errors are restored from it offline, matching libpmemobj's
// offline-only repair.
func Open(dev *nvm.Device, opts Options, replica *nvm.Device) (*Engine, error) {
	hb, err := layout.ReadReplicated(dev, 0, layout.PageSize, layout.PageSize,
		func(b []byte) (uint64, error) {
			h, err := layout.DecodePoolHeader(b)
			if err != nil {
				return 0, err
			}
			return h.Seq, nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: reading pool header: %w", err)
	}
	hdr, err := layout.DecodePoolHeader(hb)
	if err != nil {
		return nil, err
	}
	mode, err := modeFromFlags(hdr.Flags)
	if err != nil {
		return nil, err
	}
	if mode != opts.Mode {
		return nil, fmt.Errorf("core: pool was created in mode %v, opened as %v", mode, opts.Mode)
	}
	if mode.ReplicaPool() {
		if replica == nil {
			return nil, fmt.Errorf("core: mode %v requires the replica device", mode)
		}
	} else if replica != nil {
		return nil, fmt.Errorf("core: mode %v does not use a replica device", mode)
	}
	e, err := newEngineForRecovery(dev, hdr, opts, replica)
	if err != nil {
		return nil, err
	}
	if replica != nil {
		e.lm.SetMirror(replica)
	}
	if err := e.recoverAtOpen(); err != nil {
		return nil, err
	}
	if err := e.finishOpen(); err != nil {
		return nil, err
	}
	return e, nil
}

// newEngineForRecovery builds the engine pieces needed by open-time
// recovery (log manager, parity) but defers the allocator until the heap
// is consistent.
func newEngineForRecovery(dev *nvm.Device, hdr layout.PoolHeader, opts Options, replica *nvm.Device) (*Engine, error) {
	e := &Engine{
		dev:     dev,
		replica: replica,
		geo:     hdr.Geo,
		lay:     hdr.Geo.Resolve(),
		mode:    opts.Mode,
		opts:    opts,
		uuid:    hdr.UUID,
		hdr:     hdr,
	}
	e.frozenCond = sync.NewCond(&e.frozenMu)
	if e.mode.Checksums() {
		e.verified = make([]atomic.Uint64, (hdr.Geo.PoolSize()/64+63)/64)
	}
	var cb [8]byte
	if _, err := rand.Read(cb[:]); err != nil {
		return nil, err
	}
	e.canary = binary.LittleEndian.Uint64(cb[:]) | 1
	e.par = parity.New(dev, hdr.Geo, 0) // the paper's 8 KB hybrid crossover (§3.5)
	lm, err := logrec.NewManager(dev, hdr.Geo, opts.Mode.ReplicateMeta())
	if err != nil {
		return nil, err
	}
	e.lm = lm
	return e, nil
}

// finishOpen builds the allocator once recovery has the heap consistent,
// repairing corrupt CM entries from parity when possible.
func (e *Engine) finishOpen() error {
	for attempt := 0; attempt < 4; attempt++ {
		heap, err := alloc.Open(e.dev, e.geo)
		if err == nil {
			e.heap = heap
			return nil
		}
		var ce *alloc.CorruptError
		if !errors.As(err, &ce) || !e.mode.Parity() {
			return err
		}
		// Rebuild the page holding the corrupt entry from parity.
		if rerr := e.rebuildDataPage(ce.Off &^ uint64(layout.PageSize-1)); rerr != nil {
			return fmt.Errorf("core: repairing CM page: %w (original: %w)", rerr, err)
		}
		e.stats.Recovered.Add(1)
	}
	return fmt.Errorf("core: chunk metadata unrecoverable after repeated repair")
}

func newEngine(dev *nvm.Device, hdr layout.PoolHeader, opts Options) (*Engine, error) {
	e, err := newEngineForRecovery(dev, hdr, opts, nil)
	if err != nil {
		return nil, err
	}
	if logs := e.lm.Recover(); len(logs) != 0 {
		return nil, fmt.Errorf("core: fresh pool has %d pending logs", len(logs))
	}
	heap, err := alloc.Open(dev, hdr.Geo)
	if err != nil {
		return nil, err
	}
	e.heap = heap
	return e, nil
}

// Mode returns the engine's operation mode.
func (e *Engine) Mode() Mode { return e.mode }

// Geometry returns the pool geometry.
func (e *Engine) Geometry() layout.Geometry { return e.geo }

// UUID returns the pool UUID.
func (e *Engine) UUID() uint64 { return e.uuid }

// Device returns the pool's primary device (fault injection, snapshots).
func (e *Engine) Device() *nvm.Device { return e.dev }

// ReplicaDevice returns the PmemobjR replica device, or nil.
func (e *Engine) ReplicaDevice() *nvm.Device { return e.replica }

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Allocator exposes the heap for pool statistics and scrubbing tools.
func (e *Engine) Allocator() *alloc.Allocator { return e.heap }

// Close shuts the engine down and closes its device and, for PmemobjR,
// the replica it built: an untracked device's mapping is released, so
// every view into the pool is invalid afterwards (nvm.Device.Close).
// Outstanding transactions and reads must be finished.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.dev.Close()
	if e.replica != nil {
		e.replica.Close()
	}
}

// freeze blocks new transactions and waits for in-flight commit applies to
// drain. The caller must hold recoverMu and must call unfreeze.
func (e *Engine) freeze() {
	e.frozen.Store(true)
	e.commitGate.Lock()
}

func (e *Engine) unfreeze() {
	e.commitGate.Unlock()
	e.frozenMu.Lock()
	e.frozen.Store(false)
	e.frozenMu.Unlock()
	e.frozenCond.Broadcast()
}

// waitUnfrozen blocks while the pool freeze flag is set. Every transaction
// begin and commit checks it — the synchronization cost the paper measures
// on 64 B transactions (§4.4).
func (e *Engine) waitUnfrozen() {
	if !e.frozen.Load() {
		return
	}
	e.frozenMu.Lock()
	for e.frozen.Load() {
		e.frozenCond.Wait()
	}
	e.frozenMu.Unlock()
}

// Root returns the pool's root object, allocating it with the given size
// and type on first use (§2.3). The root is reachable from the pool header
// and is the anchor for all application data structures.
func (e *Engine) Root(size uint64, typ uint32) (layout.OID, error) {
	if e.closed.Load() {
		return layout.NilOID, ErrClosed
	}
	e.hdrMu.Lock()
	root := e.hdr.Root
	rootSz := e.hdr.RootSz
	e.hdrMu.Unlock()
	if !root.IsNil() {
		if rootSz != size {
			return layout.NilOID, fmt.Errorf("core: root exists with size %d, requested %d", rootSz, size)
		}
		return root, nil
	}
	tx, err := e.Begin()
	if err != nil {
		return layout.NilOID, err
	}
	oid, _, err := tx.Alloc(size, typ)
	if err != nil {
		tx.Abort()
		return layout.NilOID, err
	}
	tx.setRoot(oid, size)
	if err := tx.Commit(); err != nil {
		return layout.NilOID, err
	}
	e.hdrMu.Lock()
	root = e.hdr.Root
	e.hdrMu.Unlock()
	return root, nil
}

// applyRoot persists a root-pointer update into the pool header
// (replicated when the mode replicates metadata; mirrored to the replica
// pool for PmemobjR).
func (e *Engine) applyRoot(oid layout.OID, size uint64) {
	e.hdrMu.Lock()
	defer e.hdrMu.Unlock()
	e.hdr.Root = oid
	e.hdr.RootSz = size
	e.hdr.Seq++
	img := layout.EncodePoolHeader(e.hdr)
	e.dev.WriteAt(0, img)
	e.dev.Persist(0, uint64(len(img)))
	if e.mode.ReplicateMeta() {
		e.dev.WriteAt(layout.PageSize, img)
		e.dev.Persist(layout.PageSize, uint64(len(img)))
	}
	if e.replica != nil {
		e.replica.WriteAt(0, img)
		e.replica.WriteAt(layout.PageSize, img)
		e.replica.Persist(0, 2*layout.PageSize)
	}
}
