package pangolin

import (
	"errors"

	"github.com/pangolin-go/pangolin/internal/core"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// CorruptionError reports object corruption — a checksum mismatch or an
// implausible header — that the current read path could not (ReadView)
// or cannot (owner path after retries) repair. On a ReadView it is
// retryable: route the read through the pool's owner goroutine, whose
// repairing path runs online recovery.
type CorruptionError = core.CorruptionError

// IsCorruption reports whether err carries a CorruptionError, the typed
// "object failed verification" condition a ReadView caller resolves by
// retrying through the owner path.
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
// checksums, takes no lock, and never mutates the pool: media faults and
// checksum mismatches return their errors instead of triggering online
// recovery.
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
// Concurrency contract, one rule: the caller excludes every mutation of
// the pool — commits, Scrub and its steps, online repairs, saves — for
// the length of a view read. Any number of goroutines may then read
// through the view simultaneously. internal/shard's per-shard reader gate
// is the canonical provider; a plain RWMutex, readers on its read side
// and every mutation on its write side, satisfies it too. Failed view
// reads go through the pool's owner goroutine, whose Get repairs online.
//
// Only Get/ObjectSize/ObjectType-style reads are meaningful on a view;
// transactional methods still work but follow the owner-path rules.
func (p *Pool) ReadView() *Pool {
	return &Pool{e: p.e, readView: true}
}
