// Package pangolin is a fault-tolerant persistent memory programming
// library: a Go reproduction of "Pangolin: A Fault-Tolerant Persistent
// Memory Programming Library" (Zhang & Swanson, USENIX ATC 2019).
//
// Pangolin lets applications build complex, crash-consistent, pointer-based
// data structures in (simulated) non-volatile main memory, protected
// against both media errors and software "scribbles" by a combination of
// per-object checksums, RAID-style zone parity (~1% space overhead),
// metadata/log replication, and DRAM micro-buffering with canary words.
// Corruption is detected and repaired online, without taking the object
// store offline.
//
// # Quick start
//
//	pool, _ := pangolin.Create(pangolin.Config{})          // full protection
//	root, _ := pangolin.Root[MyRoot](pool, 1)
//	_ = pool.Run(func(tx *pangolin.Tx) error {
//	    node, _ := pangolin.Open[MyRoot](tx, root)          // micro-buffer
//	    node.Value = 42                                     // mutate the shadow
//	    return nil                                          // commit updates NVMM + checksum + parity
//	})
//
// The single-object style of the paper's Listing 2 is also available:
//
//	obj, _ := pangolin.OpenSingle[MyRoot](pool, root)       // pgl_open
//	obj.Value().Count++
//	_ = obj.Commit()                                        // pgl_commit
//
// NVMM is simulated (see internal/nvm): pools live on a byte-addressable
// device with an explicit flush/fence persistence model, 4 KB media-error
// poisoning, and crash simulation. SaveSnapshot/LoadSnapshot persist pools
// across process runs.
package pangolin

import (
	"fmt"
	"io"
	"sync"

	"github.com/pangolin-go/pangolin/internal/core"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// OID is a persistent object identifier (the PMEMoid analog): pool UUID
// plus object offset. OIDs stay valid across pool reopens.
type OID = layout.OID

// NilOID is the null persistent pointer.
var NilOID = layout.NilOID

// Geometry fixes a pool's shape; see DefaultGeometry and PaperGeometry.
type Geometry = layout.Geometry

// DefaultGeometry returns the test-scale pool shape (1 MB zones, 16 chunk
// rows).
func DefaultGeometry() Geometry { return layout.Default() }

// PaperGeometry returns a pool shape with the paper's proportions: 100
// chunk rows per zone, so parity costs ~1% (§3.1).
func PaperGeometry(zones uint64) Geometry { return layout.Paper(zones) }

// Mode selects the operation mode (paper Table 2).
type Mode = core.Mode

// Operation modes (Table 2), plus the §3.5 extension mode.
const (
	ModePmemobj      = core.Pmemobj      // libpmemobj baseline: undo log, no protection
	ModePangolin     = core.Pangolin     // micro-buffering + redo only
	ModePangolinML   = core.PangolinML   // + metadata/log replication
	ModePangolinMLP  = core.PangolinMLP  // + zone parity
	ModePangolinMLPC = core.PangolinMLPC // + object checksums (full system)
	ModePmemobjR     = core.PmemobjR     // libpmemobj + full replica pool
	// ModePmemobjP is the extension §3.5 sketches for other transaction
	// systems: undo logging with commit-time parity patches computed
	// from snapshot⊕current. Offline repair at ~1% space; no checksums,
	// no online recovery.
	ModePmemobjP = core.PmemobjP
)

// VerifyPolicy selects checksum verification timing (§3.3).
type VerifyPolicy = core.VerifyPolicy

// Verification policies.
const (
	VerifyDefault      = core.VerifyDefault      // verify at micro-buffer creation
	VerifyConservative = core.VerifyConservative // verify every access incl. Get
)

// Stats exposes engine counters.
type Stats = core.Stats

// ScrubReport summarizes scrubbing work: a full pass, one incremental
// step, or any merged set of either (see ScrubReport.Add).
type ScrubReport = core.ScrubReport

// ScrubberConfig bounds the work (and freeze window) of one incremental
// scrub step.
type ScrubberConfig = core.ScrubberConfig

// Scrubber is a resumable incremental scrub cursor over one pool; see
// Pool.NewScrubber.
type Scrubber = core.Scrubber

// Device is the simulated NVMM module backing a pool.
type Device = nvm.Device

// CrashMode selects how a simulated power failure treats unpersisted
// cache lines; see Device.CrashCopy.
type CrashMode = nvm.CrashMode

// Crash modes.
const (
	CrashStrict      = nvm.CrashStrict      // revert every non-persistent line
	CrashEvictRandom = nvm.CrashEvictRandom // random cache-eviction outcomes
)

// ErrNeedReopen reports a fault that online recovery cannot handle; close
// and reopen the pool to recover.
var ErrNeedReopen = core.ErrNeedReopen

// Config configures pool creation and opening.
type Config struct {
	// Mode is the operation mode; the zero value is ModePangolinMLPC,
	// the fully protected system.
	Mode Mode
	// Policy selects checksum verification timing.
	Policy VerifyPolicy
	// ScrubEvery, when nonzero, runs a scrubbing pass after every N
	// committed transactions ("Scrub" mode).
	ScrubEvery uint64
	// Geometry fixes the pool shape; zero value selects
	// DefaultGeometry.
	Geometry Geometry
	// ParityThreshold overrides the hybrid parity crossover in bytes
	// (default 8 KB, §3.5).
	ParityThreshold int
	// TrackPersistence enables crash simulation on the new device
	// (default on; disable only for pure throughput benchmarking).
	DisableTracking bool
	// Zero forces zeroing the device at create time: required for
	// devices with prior contents, and the one-time pool-init cost the
	// paper measures in §4.2 (fresh devices are already zero).
	Zero bool
	// ReadVerifyLimit bounds per-read checksum verification on the
	// concurrent read path (ReadView): objects larger than this many
	// bytes keep header sanity + poison checks and rely on scrubbing
	// instead of being checksummed on every read. 0 selects the 16 KB
	// default (covers every per-key node of the six paper structures);
	// negative verifies regardless of size.
	ReadVerifyLimit int
	// Scrub bounds the work of one incremental scrub step for the pool's
	// built-in scrubber (Pool.ScrubStep) and any maintenance scheduler
	// driving it. Zero values select the defaults.
	Scrub ScrubberConfig
}

func (c *Config) geometry() Geometry {
	if c.Geometry == (Geometry{}) {
		return DefaultGeometry()
	}
	return c.Geometry
}

// Pool is an open Pangolin object pool. A Pool handle returned by
// ReadView shares the engine but serves Get through the concurrent
// verified-read path; see ReadView for the contract.
type Pool struct {
	e        *core.Engine
	readView bool // a ReadView handle: Get runs the concurrent verified-read path

	// Built-in incremental scrubber (ScrubStep), created lazily with the
	// Config.Scrub bounds. Guarded by scrubMu: steps are serialized, per
	// the Scrubber contract.
	scrubCfg ScrubberConfig
	scrubMu  sync.Mutex
	scrub    *Scrubber
}

// Create builds a new pool on a fresh simulated NVMM device.
//
// Note the zero Config selects ModePmemobj numerically; use
// DefaultConfig() or set Mode explicitly for the protected modes.
func Create(cfg Config) (*Pool, error) {
	geo := cfg.geometry()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: !cfg.DisableTracking})
	return CreateOnDevice(dev, cfg)
}

// DefaultConfig returns the fully protected configuration
// (ModePangolinMLPC, default verification).
func DefaultConfig() Config { return Config{Mode: ModePangolinMLPC} }

// CreateOnDevice formats a pool on an existing device (which must be
// zeroed — fresh devices are).
func CreateOnDevice(dev *Device, cfg Config) (*Pool, error) {
	e, err := core.Create(dev, cfg.geometry(), core.Options{
		Mode:            cfg.Mode,
		Policy:          cfg.Policy,
		ScrubEvery:      cfg.ScrubEvery,
		ParityThreshold: cfg.ParityThreshold,
		ReadVerifyLimit: cfg.ReadVerifyLimit,
		Zero:            cfg.Zero,
	})
	if err != nil {
		return nil, err
	}
	return &Pool{e: e, scrubCfg: cfg.Scrub}, nil
}

// OpenDevice opens an existing pool on dev, running crash recovery.
// replica must be the pool's replica device for ModePmemobjR and nil
// otherwise.
func OpenDevice(dev *Device, cfg Config, replica *Device) (*Pool, error) {
	e, err := core.Open(dev, core.Options{
		Mode:            cfg.Mode,
		Policy:          cfg.Policy,
		ScrubEvery:      cfg.ScrubEvery,
		ParityThreshold: cfg.ParityThreshold,
		ReadVerifyLimit: cfg.ReadVerifyLimit,
	}, replica)
	if err != nil {
		return nil, err
	}
	return &Pool{e: e, scrubCfg: cfg.Scrub}, nil
}

// Close shuts the pool down. In-flight transactions must be finished.
func (p *Pool) Close() { p.e.Close() }

// Mode returns the pool's operation mode.
func (p *Pool) Mode() Mode { return p.e.Mode() }

// UUID returns the pool UUID embedded in every OID.
func (p *Pool) UUID() uint64 { return p.e.UUID() }

// Stats returns the pool's activity counters.
func (p *Pool) Stats() *Stats { return p.e.Stats() }

// Device returns the underlying simulated NVMM device (snapshots, fault
// injection, persistence statistics).
func (p *Pool) Device() *Device { return p.e.Device() }

// ReplicaDevice returns the ModePmemobjR replica device, or nil.
func (p *Pool) ReplicaDevice() *Device { return p.e.ReplicaDevice() }

// RootOID returns the pool's root object, allocating size bytes with the
// given type id on first use. All application data must be reachable from
// the root (§2.3).
func (p *Pool) RootOID(size uint64, typ uint32) (OID, error) {
	return p.e.Root(size, typ)
}

// Begin starts a transaction. Each goroutine uses its own transaction;
// two concurrent transactions must not modify the same object (§3.4).
func (p *Pool) Begin() (*Tx, error) {
	t, err := p.e.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{t: t, pool: p}, nil
}

// Run executes fn in a transaction, committing on nil and aborting (and
// returning the error) otherwise.
func (p *Pool) Run(fn func(*Tx) error) error {
	tx, err := p.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Get returns read-only access to an object's user data without
// micro-buffering (pgl_get). See VerifyPolicy for the checking rules.
// On a ReadView handle, Get instead runs the concurrent verified-read
// path: each object's checksum verified once per modification, no online
// recovery, ErrReadBusy during freeze windows.
func (p *Pool) Get(oid OID) ([]byte, error) {
	if p.readView {
		return p.e.GetRO(oid)
	}
	return p.e.Get(oid)
}

// ObjectSize returns an object's user-data size.
func (p *Pool) ObjectSize(oid OID) (uint64, error) { return p.e.ObjectSize(oid) }

// ObjectType returns an object's type id.
func (p *Pool) ObjectType(oid OID) (uint32, error) { return p.e.ObjectType(oid) }

// CheckObject verifies an object's checksum on demand, repairing from
// parity on mismatch.
func (p *Pool) CheckObject(oid OID) error { return p.e.CheckObject(oid) }

// Scrub verifies and restores the whole pool's integrity (§3.3) as one
// full pass of incremental steps: the pool is frozen per bounded step,
// never for the whole pass, so transactions and reads interleave.
func (p *Pool) Scrub() (ScrubReport, error) { return p.e.Scrub() }

// NewScrubber returns a resumable incremental scrubber over the pool.
// Steps must be serialized by the caller (the pool's owner goroutine is
// the canonical driver); everything else interleaves between steps.
func (p *Pool) NewScrubber(cfg ScrubberConfig) *Scrubber { return p.e.NewScrubber(cfg) }

// ScrubStep advances the pool's built-in incremental scrubber by one
// bounded step (configured by Config.Scrub) and returns that step's
// report. done reports that the step completed a full pass — every
// known-bad page, live object, and parity zone covered since the cursor
// last reset — after which the cursor starts over. Steps are serialized
// internally; a maintenance scheduler calls this between transactions to
// make full-pool integrity the fixpoint of many cheap steps.
func (p *Pool) ScrubStep() (rep ScrubReport, done bool, err error) {
	p.scrubMu.Lock()
	defer p.scrubMu.Unlock()
	if p.scrub == nil {
		p.scrub = p.e.NewScrubber(p.scrubCfg)
	}
	return p.scrub.Step()
}

// InjectRandomFault corrupts a pseudo-randomly chosen live object (§4.6
// fault injection): even seeds scribble the object's checksummed bytes,
// odd seeds poison its page. It reports false when the pool holds no
// live objects. Call with no transactions in flight.
func (p *Pool) InjectRandomFault(seed int64) bool { return p.e.InjectRandomFault(seed) }

// LiveStats summarizes heap occupancy.
type LiveStats struct {
	Objects int    // committed live objects
	Bytes   uint64 // reserved bytes (slots and extents)
}

// LiveObjects counts committed live objects and their reserved bytes.
// Call with no transactions in flight.
func (p *Pool) LiveObjects() LiveStats {
	return LiveStats{
		Objects: p.e.Allocator().CountLive(),
		Bytes:   p.e.Allocator().LiveBytes(),
	}
}

// InjectMediaError poisons the page containing off, destroying its
// contents (§4.6 fault injection).
func (p *Pool) InjectMediaError(off uint64) { p.e.InjectMediaError(off) }

// InjectScribble overwrites [off, off+n) with random bytes, bypassing the
// library (§4.6 fault injection).
func (p *Pool) InjectScribble(off, n uint64, seed int64) { p.e.InjectScribble(off, n, seed) }

// SaveSnapshot persists the pool's durable state to w (the stand-in for a
// real NVMM-backed file across process runs). Call with no transactions
// in flight.
func (p *Pool) SaveSnapshot(w io.Writer) error { return p.e.Device().WriteSnapshot(w) }

// SaveFile persists the pool's durable state to a file.
func (p *Pool) SaveFile(path string) error { return p.e.Device().SaveFile(path) }

// LoadFile opens a pool previously saved with SaveFile.
func LoadFile(path string, cfg Config) (*Pool, error) {
	dev, err := nvm.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModePmemobjR {
		return nil, fmt.Errorf("pangolin: snapshot files do not carry replica pools; reconstruct with OpenDevice")
	}
	return OpenDevice(dev, cfg, nil)
}
