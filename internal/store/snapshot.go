package store

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrSnapshotTooOld surfaces on a snapshot whose pinned generation was
// evicted from the version buffer (pin cap or retention cap exceeded,
// or the buffer invalidated after an unreadable pre-state): the
// snapshot can no longer prove its generation's bytes, so it refuses to
// answer rather than degrade to live reads.
var ErrSnapshotTooOld = errors.New("store: snapshot too old: pinned generation evicted from the version buffer")

// Version-buffer bounds. The buffer is strictly bounded: at most
// DefaultMaxPins distinct pinned generations (opening past the cap
// evicts the oldest pin) and at most DefaultMaxVersions retained
// superseded versions (commits that would exceed it evict the oldest
// pin until the survivors' versions fit). Evicted pins answer every
// subsequent read with ErrSnapshotTooOld.
const (
	DefaultMaxPins     = 16
	DefaultMaxVersions = 1 << 16
)

// version is one superseded value of a key: the state the key held
// before the commit at generation supersededAt overwrote it. A snapshot
// pinned at generation G resolves a key through the oldest version with
// supersededAt > G; present=false records "the key did not exist yet",
// masking a later insert from older snapshots.
type version struct {
	supersededAt uint64
	val          uint64
	present      bool
}

// VersionBuffer is the bounded undo/version buffer behind a backend's
// OpenSnapshot, shared by both in-repo engines. The engine
// drives it from its owner goroutine around every Apply:
//
//	if vb.Recording() { vb.Stage(k, preVal, wasPresent) } // per mutated key
//	...mutate...
//	vb.Commit() // batch durable — or vb.Abort() if nothing was applied
//
// Stage is first-wins per batch, so a key mutated twice in one batch
// keeps its pre-batch state; Commit assigns the new generation and
// publishes the staged versions only if the batch really applied,
// preserving the Apply contract ("on error nothing is applied").
// Pre-states are staged only while a pin exists, so an idle buffer
// costs one map-length check per batch.
//
// Pin/Release/reads take an internal mutex and are safe from any
// goroutine; the live reads a Snapshot falls through to still follow
// the View exclusion contract (reader-gate discipline).
type VersionBuffer struct {
	mu           sync.Mutex
	gen          uint64               // committed generation (batches applied)
	pins         map[uint64]int       // pinned generation -> refcount
	versions     map[uint64][]version // key -> superseded versions, supersededAt ascending
	retained     int                  // total version entries across keys
	evictedBelow uint64               // pins at gen < this are too old
	staged       map[uint64]version   // current batch's pre-states (supersededAt unset)
	maxPins      int
	maxVersions  int
}

// NewVersionBuffer returns an empty buffer with the default bounds.
func NewVersionBuffer() *VersionBuffer {
	return &VersionBuffer{
		pins:        make(map[uint64]int),
		versions:    make(map[uint64][]version),
		maxPins:     DefaultMaxPins,
		maxVersions: DefaultMaxVersions,
	}
}

// Recording reports whether any pin is held — the engine's cue to stage
// pre-states for the batch it is about to apply.
func (b *VersionBuffer) Recording() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pins) > 0
}

// Stage records k's pre-batch state (first call per key per batch wins).
func (b *VersionBuffer) Stage(k, val uint64, present bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.staged == nil {
		b.staged = make(map[uint64]version)
	}
	if _, dup := b.staged[k]; !dup {
		b.staged[k] = version{val: val, present: present}
	}
}

// Commit advances the generation and, if pins are still held, publishes
// the staged pre-states as versions superseded at the new generation.
func (b *VersionBuffer) Commit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	if len(b.staged) > 0 {
		if len(b.pins) > 0 {
			for k, ver := range b.staged {
				ver.supersededAt = b.gen
				b.versions[k] = append(b.versions[k], ver)
				b.retained++
			}
		}
		b.staged = nil
	}
	b.pruneLocked()
	for b.retained > b.maxVersions && len(b.pins) > 0 {
		b.evictOldestPinLocked()
		b.pruneLocked()
	}
}

// Abort discards the staged pre-states of a batch that did not apply.
func (b *VersionBuffer) Abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.staged = nil
}

// Invalidate evicts every pin — the engine's escape hatch when it could
// not read a pre-state it was obliged to preserve (e.g. unrepaired
// corruption on the staging read). Open snapshots fail their next read
// with ErrSnapshotTooOld instead of silently missing a version.
func (b *VersionBuffer) Invalidate() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gen+1 > b.evictedBelow {
		b.evictedBelow = b.gen + 1
	}
	b.pins = make(map[uint64]int)
	b.pruneLocked()
}

// Open pins the current committed generation and returns its Snapshot.
// At the pin cap the oldest pinned generation is evicted to make room.
func (b *VersionBuffer) Open(ordered bool) *Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, shared := b.pins[b.gen]; !shared && len(b.pins) >= b.maxPins {
		b.evictOldestPinLocked()
		b.pruneLocked()
	}
	b.pins[b.gen]++
	return &Snapshot{b: b, gen: b.gen, ordered: ordered}
}

// Pins reports the distinct pinned generations (Stats.SnapshotPins).
func (b *VersionBuffer) Pins() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pins)
}

// Retained reports the held version entries (Stats.VersionsRetained).
func (b *VersionBuffer) Retained() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retained
}

func (b *VersionBuffer) release(gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.pins[gen]; n > 1 {
		b.pins[gen] = n - 1
		return
	}
	delete(b.pins, gen)
	b.pruneLocked()
}

// evictOldestPinLocked drops the oldest pinned generation and advances
// the too-old watermark past it.
func (b *VersionBuffer) evictOldestPinLocked() {
	oldest, have := uint64(0), false
	for g := range b.pins {
		if !have || g < oldest {
			oldest, have = g, true
		}
	}
	if !have {
		return
	}
	delete(b.pins, oldest)
	if oldest+1 > b.evictedBelow {
		b.evictedBelow = oldest + 1
	}
}

// pruneLocked drops versions no surviving pin can resolve: a pin at G
// only ever reads versions with supersededAt > G, so everything at or
// below the minimum pinned generation is dead weight. With no pins the
// buffer empties entirely.
func (b *VersionBuffer) pruneLocked() {
	if len(b.pins) == 0 {
		if b.retained > 0 {
			b.versions = make(map[uint64][]version)
			b.retained = 0
		}
		return
	}
	minPinned, have := uint64(0), false
	for g := range b.pins {
		if !have || g < minPinned {
			minPinned, have = g, true
		}
	}
	for k, vs := range b.versions {
		i := 0
		for i < len(vs) && vs[i].supersededAt <= minPinned {
			i++
		}
		if i == 0 {
			continue
		}
		b.retained -= i
		if i == len(vs) {
			delete(b.versions, k)
		} else {
			b.versions[k] = vs[i:]
		}
	}
}

// resolve answers k at generation gen: (val, present, true) when a
// retained version applies, hasVersion=false when the live state is
// already the state at gen, or ErrSnapshotTooOld past the watermark.
func (b *VersionBuffer) resolve(gen, k uint64) (val uint64, present, hasVersion bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen < b.evictedBelow {
		return 0, false, false, ErrSnapshotTooOld
	}
	for _, ver := range b.versions[k] {
		if ver.supersededAt > gen {
			return ver.val, ver.present, true, nil
		}
	}
	return 0, false, false, nil
}

// overlayEntry is one key whose snapshot-visible state differs from (or
// must be checked against) the live state during a snapshot scan.
type overlayEntry struct {
	k, v    uint64
	present bool
}

// overlay collects the in-range keys with an applicable version at gen,
// sorted ascending so ordered scans can interleave them.
func (b *VersionBuffer) overlay(gen, lo, hi uint64) ([]overlayEntry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen < b.evictedBelow {
		return nil, ErrSnapshotTooOld
	}
	var out []overlayEntry
	for k, vs := range b.versions {
		if k < lo || k > hi {
			continue
		}
		for _, ver := range vs {
			if ver.supersededAt > gen {
				out = append(out, overlayEntry{k: k, v: ver.val, present: ver.present})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out, nil
}

// Snapshot is a pinned-generation read handle. It holds no data itself:
// a read resolves the key through the version buffer first (superseded
// versions win, present=false masks later inserts) and falls through to
// the live reader only for keys untouched since the pin. The live
// View is supplied per call so the same snapshot serves both read
// populations — the shard layer passes the concurrent ReadView under
// the reader gate on the fast path and the owner Store on the worker
// fallback (Store satisfies View). Live reads follow the caller's usual
// exclusion contract; the buffer itself is internally locked.
//
// Release drops the pin (idempotent, any goroutine); every read after
// Release — or after the pin is evicted — returns ErrSnapshotTooOld.
type Snapshot struct {
	b        *VersionBuffer
	gen      uint64
	ordered  bool
	released atomic.Bool
}

// Gen is the pinned generation (the backend's committed-batch count at
// pin time).
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Ordered mirrors the backend's Scan ordering for the snapshot scan.
func (sn *Snapshot) Ordered() bool { return sn.ordered }

// Release drops the pin. Idempotent and safe from any goroutine —
// connection teardown paths call it without a worker hop.
func (sn *Snapshot) Release() {
	if sn.released.CompareAndSwap(false, true) {
		sn.b.release(sn.gen)
	}
}

// Get reads k as of the pinned generation.
func (sn *Snapshot) Get(live View, k uint64) (uint64, bool, error) {
	if sn.released.Load() {
		return 0, false, ErrSnapshotTooOld
	}
	v, present, has, err := sn.b.resolve(sn.gen, k)
	if err != nil {
		return 0, false, err
	}
	if has {
		return v, present, nil
	}
	return live.Get(k)
}

// Scan walks [lo, hi] as of the pinned generation: the live scan
// stream with superseded versions substituted in, later inserts masked
// out, and keys deleted since the pin added back. Ordered backends keep
// ascending output by interleaving the sorted overlay; unordered
// backends stay unordered-but-complete. The kv.Map iteration contract
// holds: fn=false stops early, and a mid-scan read failure aborts with
// that error.
func (sn *Snapshot) Scan(live View, lo, hi uint64, fn func(k, v uint64) bool) error {
	if sn.released.Load() {
		return ErrSnapshotTooOld
	}
	ov, err := sn.b.overlay(sn.gen, lo, hi)
	if err != nil {
		return err
	}
	if sn.ordered {
		return sn.scanOrdered(live, lo, hi, ov, fn)
	}
	return sn.scanUnordered(live, lo, hi, ov, fn)
}

func (sn *Snapshot) scanOrdered(live View, lo, hi uint64, ov []overlayEntry, fn func(k, v uint64) bool) error {
	i, stopped := 0, false
	err := live.Scan(lo, hi, func(k, v uint64) bool {
		for i < len(ov) && ov[i].k < k {
			e := ov[i]
			i++
			if e.present && !fn(e.k, e.v) {
				stopped = true
				return false
			}
		}
		if i < len(ov) && ov[i].k == k {
			e := ov[i]
			i++
			if !e.present {
				return true // inserted after the pin: invisible
			}
			if !fn(e.k, e.v) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		if err == nil {
			return nil
		}
		return err
	}
	for ; i < len(ov); i++ {
		if ov[i].present && !fn(ov[i].k, ov[i].v) {
			return nil
		}
	}
	return nil
}

func (sn *Snapshot) scanUnordered(live View, lo, hi uint64, ov []overlayEntry, fn func(k, v uint64) bool) error {
	idx := make(map[uint64]int, len(ov))
	for i := range ov {
		idx[ov[i].k] = i
	}
	seen := make(map[uint64]bool, len(ov))
	stopped := false
	err := live.Scan(lo, hi, func(k, v uint64) bool {
		if i, ok := idx[k]; ok {
			seen[k] = true
			e := ov[i]
			if !e.present {
				return true
			}
			if !fn(e.k, e.v) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	for _, e := range ov {
		if e.present && !seen[e.k] {
			if !fn(e.k, e.v) {
				return nil
			}
		}
	}
	return nil
}
