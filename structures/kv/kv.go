// Package kv defines the interface shared by the six persistent key-value
// data structures the paper evaluates (§4.5): ctree, rbtree, btree,
// skiplist, rtree, and hashmap. All map uint64 keys to uint64 values and
// store every node as a Pangolin object, so each structure exercises the
// library with its own object sizes and transaction shapes (Table 3).
package kv

import "github.com/pangolin-go/pangolin"

// Map is a persistent uint64 → uint64 key-value store. Implementations
// are safe for use from one goroutine at a time (transactions are
// per-goroutine; see §3.4), with one carve-out: the concurrent-read
// contract below.
//
// The Tx variants run inside a caller-owned transaction, so a caller can
// group many operations into one commit — one log persist, one fence,
// one parity pass — which is the group-commit lever the serving layer
// uses. Within the transaction, later operations observe earlier ones
// (LookupTx reads the transaction's micro-buffers); nothing is durable
// until the caller commits, and an abort discards every grouped
// operation together.
//
// # Concurrent-read contract
//
// Every implementation's Lookup and Scan must be pure reads: no writes
// to the pool, no mutation of the Map handle's own state. That makes a
// second instance of the structure, attached to the pool's ReadView
// (pangolin.Pool.ReadView), safe for concurrent Lookups and Scans from
// any number of goroutines, provided the caller excludes every mutation
// of the pool — transaction commits, scrubs, and the owner instance's
// repairing reads — for the duration of each call (internal/shard's
// per-shard reader gate is the canonical provider; a plain RWMutex —
// readers R-side around each Lookup or Scan, writers W-side around each
// transaction and owner call — satisfies it too). Under that discipline
// a concurrent read observes either the pre-image or the post-image of
// any in-flight transaction, never a torn value: object bytes change
// only inside commits and repairs, and both are excluded. On a ReadView,
// faults surface as typed errors instead of triggering online recovery;
// the caller retries via the owner goroutine. structures/kvtest's
// RunConcurrent suite enforces this contract for every registered
// structure.
//
// # Iteration contract
//
// Scan visits every pair with lo <= k <= hi (bounds inclusive; an empty
// range when lo > hi), calling fn once per pair until fn returns false
// (early stop, not an error) or the range is exhausted. The five ordered
// structures visit keys in strictly ascending order; hashmap visits them
// in unspecified order but completely. A Scan must NEVER silently drop
// pairs: any read failure mid-iteration aborts the walk and returns that
// error, so a nil error from Scan means fn saw every in-range pair (up
// to an early stop fn itself requested). On a ReadView instance the
// error is typed and retryable — *pangolin.CorruptionError or a poison
// error, for faults that need the owner path's online repair — never a
// partial iteration that looks complete. Range is Scan over the full key space.
type Map interface {
	// Insert adds or updates a key in one transaction.
	Insert(k, v uint64) error
	// Lookup returns the value for k. Lookups read NVMM directly
	// without micro-buffering (pgl_get) and follow the concurrent-read
	// contract above.
	Lookup(k uint64) (uint64, bool, error)
	// Scan calls fn for every pair with lo <= k <= hi, following the
	// iteration contract above: ascending for the ordered structures,
	// unordered but complete for hashmap, early-stopping when fn
	// returns false, and surfacing any mid-scan read fault as an error.
	// Scan is a pure read and follows the concurrent-read contract.
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
	// Remove deletes k, reporting whether it was present.
	Remove(k uint64) (bool, error)
	// InsertTx is Insert inside the caller's transaction. On error the
	// caller must abort tx: the structure may be half-modified.
	InsertTx(tx *pangolin.Tx, k, v uint64) error
	// LookupTx is Lookup inside the caller's transaction, observing the
	// transaction's own uncommitted writes.
	LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error)
	// RemoveTx is Remove inside the caller's transaction. On error the
	// caller must abort tx.
	RemoveTx(tx *pangolin.Tx, k uint64) (bool, error)
	// Anchor returns the OID of the structure's persistent anchor;
	// passing it to the structure's Attach function reconnects after a
	// pool reopen.
	Anchor() pangolin.OID
}
