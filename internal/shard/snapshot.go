package shard

import (
	"fmt"
	"sync/atomic"

	"github.com/pangolin-go/pangolin/internal/store"
)

// SetSnapshot is a pinned-generation read handle over the whole set:
// one pin per shard, taken together, forming the set-level snapshot
// vector. Every SetSnapshot read — a paginated Scan, a backup stream —
// resolves at exactly the pinned generations, so the caller sees one
// committed state of the set no matter how many group commits land
// while it pages.
//
// The pins cost memory on the write path (each shard's version buffer
// preserves the pre-image of every object overwritten after the pin),
// so snapshots are bounded: per shard at most store.DefaultMaxPins
// generations and store.DefaultMaxVersions preserved versions. A
// snapshot evicted by those caps — or explicitly Released — answers
// every later read with store.ErrSnapshotTooOld (errors.Is), never
// with silently-live data.
//
// Release drops every shard pin; it is idempotent and safe from any
// goroutine, so connection-teardown paths call it directly.
type SetSnapshot struct {
	set      *Set
	snaps    []*store.Snapshot
	released atomic.Bool
}

// OpenSnapshot pins every shard's current committed generation and
// returns the coordinated snapshot. Each pin is serialized onto its
// shard's worker goroutine — a pin lands between group commits, never
// inside one — and the shards pin in parallel, so the snapshot vector
// is acquired in one queue round-trip per shard, not a set-wide freeze.
//
// The set snapshot is all-or-nothing: if any shard fails to pin (it is
// shutting down) the open fails and every pin already taken is
// released, never a "snapshot" that pins some shards and reads the
// others live.
func (s *Set) OpenSnapshot() (*SetSnapshot, error) {
	snaps := make([]*store.Snapshot, len(s.workers))
	var first error
	for i, r := range s.broadcast(request{op: opSnapOpen}) {
		snaps[i] = r.snap
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	if first != nil {
		for _, sn := range snaps {
			if sn != nil {
				sn.Release()
			}
		}
		return nil, first
	}
	return &SetSnapshot{set: s, snaps: snaps}, nil
}

// Release drops every shard pin. Idempotent; safe from any goroutine.
func (sn *SetSnapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	for _, s := range sn.snaps {
		s.Release()
	}
}

// Gens returns the snapshot vector: shard i's pinned generation (its
// committed-batch count at pin time). Diagnostics and tests; the vector
// is fixed at open.
func (sn *SetSnapshot) Gens() []uint64 {
	out := make([]uint64, len(sn.snaps))
	for i, s := range sn.snaps {
		out[i] = s.Gen()
	}
	return out
}

// Scan returns up to limit pairs with keys in [lo, hi] in ascending key
// order as of the snapshot's pinned generations, with the same
// pagination contract as Set.Scan (next/more to continue). Unlike
// Set.Scan, every page of a paginated snapshot scan observes the same
// committed state: group commits proceeding between pages change
// nothing the scan reports.
//
// Chunks follow the live scan's two-population split — the fast path
// resolves against the shard's ReadView under the reader gate on this
// goroutine, fallback chunks resolve against the owner store on the
// worker — with the pinned-generation version overlay applied to
// either source. A pin evicted mid-scan (caps, Release, an engine
// invalidation) surfaces as store.ErrSnapshotTooOld rather than a page
// of mixed-generation data.
func (sn *SetSnapshot) Scan(lo, hi uint64, limit int) (pairs []Pair, next uint64, more bool, err error) {
	if sn.released.Load() {
		return nil, 0, false, fmt.Errorf("shard: released snapshot: %w", store.ErrSnapshotTooOld)
	}
	return sn.set.scan(sn.snaps, lo, hi, limit)
}
