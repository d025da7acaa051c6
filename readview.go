package pangolin

import (
	"errors"

	"github.com/pangolin-go/pangolin/internal/core"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// ErrReadBusy reports that a read-view Get could not proceed because the
// pool is frozen (or freezing) for online recovery or scrubbing. Retry
// the read through the pool's owner goroutine, whose repairing path
// waits the freeze out.
var ErrReadBusy = core.ErrReadBusy

// CorruptionError reports object corruption — a checksum mismatch or an
// implausible header — that the current read path could not (ReadView)
// or cannot (owner path after retries) repair. On a ReadView it is
// retryable: route the read through the pool's owner goroutine, whose
// repairing path runs online recovery.
type CorruptionError = core.CorruptionError

// IsCorruption reports whether err carries a CorruptionError, the typed
// "object failed verification" condition a ReadView caller resolves by
// retrying through the owner path (as opposed to ErrReadBusy, which is a
// transient freeze window).
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// PoisonError reports a load from a poisoned page — an uncorrectable
// media error, the SIGBUS analog. On a ReadView it is retryable exactly
// like a CorruptionError: the owner path's repairing read rebuilds the
// page from parity.
type PoisonError = nvm.PoisonError

// IsPoison reports whether err carries a PoisonError.
func IsPoison(err error) bool {
	var pe *PoisonError
	return errors.As(err, &pe)
}

// ReadView returns a read-only handle onto the same pool for concurrent
// verified reads. Get (and GetFromPool, and any structure Lookup running
// against the view) executes on the caller's goroutine, verifies object
// checksums, and never mutates the pool: media faults and checksum
// mismatches return their errors instead of triggering online recovery,
// and freeze windows return ErrReadBusy.
//
// Pangolin's headline read design (§3.3) has readers verify per-object
// checksums straight from NVMM; verifying every object on every traversal
// would make hot objects cost O(object) per read, so the engine keeps a
// verified-read table — one bit per 64-byte heap slot, shared by every
// view of the pool — that a reader sets after checking an object and a
// commit clears for exactly the objects it wrote, allocated or freed.
// Object bytes only change inside commits — the view requires the
// caller's writer exclusion — so an unmodified object needs no second
// verification, and a view holds no state of its own. The owner path's
// Get reads under the same rule and shares the table. Scribbles that land
// after a verification are windowed: the next modification or scrub pass
// catches them.
//
// Concurrency contract: any number of goroutines may read through the
// view simultaneously, and view reads may overlap Scrub and online
// recovery (they bounce with ErrReadBusy rather than racing repairs).
// The caller must guarantee no transaction is in its commit while a view
// read runs — internal/shard's per-shard reader gate is the canonical
// provider — and must route failed view reads through the pool's owner
// goroutine, whose Get repairs online.
//
// Only Get/ObjectSize/ObjectType-style reads are meaningful on a view;
// transactional methods still work but follow the owner-path rules.
func (p *Pool) ReadView() *Pool {
	return &Pool{e: p.e, readView: true}
}

// IsReadView reports whether this handle is a concurrent read view.
func (p *Pool) IsReadView() bool { return p.readView }

// ReadBusy reports whether err is the transient "pool frozen or
// freezing" condition that a read-view caller should resolve by routing
// the read through the pool's owner goroutine.
func ReadBusy(err error) bool { return errors.Is(err, ErrReadBusy) }
