// Package store defines the per-shard storage-backend interface the
// shard service layer builds on. A Store is exactly what one shard
// worker consumes: verified point reads, bounded scans, atomically
// applied operation batches (the group-commit unit), snapshot and
// crash-image persistence, one bounded background-maintenance step (the
// maintenance scheduler's tick unit), stats, and lifecycle. Everything
// above this interface — worker goroutines, the reader gate, group
// commit, the wire protocol — is backend-agnostic, so a set can run on
// either engine and the benchmarks can race the paper's protections
// against an unprotected in-repo baseline instead of a fork.
//
// Two backends ship in-repo:
//
//   - pangolinstore: the paper's engine — a Pangolin pool (micro-
//     buffered transactions, checksums, parity, online repair over a
//     simulated NVMM device) holding one of the six persistent kv
//     structures. Integrity-heavy: every commit pays checksum + parity
//     maintenance, and corruption heals online.
//   - logstore: an append-only (bitcask-style) log engine — CRC-framed
//     records in segment files, an in-memory index, hint files for fast
//     reopen, and background merge/compaction. Raw-speed: sequential
//     appends, no parity, corruption is detected (CRC) but not
//     repaired.
//
// # Threading contract
//
// A Store belongs to one owner goroutine (the shard worker): Apply,
// Save, CrashSave, ScrubStep, Stats, and Close are never called
// concurrently. Get and Scan on the Store itself are owner-path reads
// (they may repair online where the backend can). Concurrent reads go
// through the Store's ReadView: a View's Get/Scan must be pure reads,
// safe from any number of goroutines provided the caller excludes every
// owner-path call — Apply, Save, CrashSave, ScrubStep, and the owner's
// repairing Get and Scan — for the duration of each call. That is the
// one rule a view needs; the shard layer's per-shard reader gate is the
// canonical provider.
//
// # Capabilities
//
// Every Store runs full scrub passes and pins MVCC snapshots: both are
// part of the contract, so a set can never serve a weaker snapshot than
// it was asked for. Two interfaces are optional. FaultInjector serves
// the INJECT wire op; a backend that cannot heal what it would inject
// (logstore) leaves it out, and INJECT reports the capable count.
// Reverifier serves the shard worker's repair-retry; a backend that
// verifies every read (logstore) leaves it out.
package store

import "github.com/pangolin-go/pangolin"

// Op kinds, the operation vocabulary of Apply.
const (
	OpGet uint8 = 1
	OpPut uint8 = 2
	OpDel uint8 = 3
)

// Op is one operation inside an Apply batch.
type Op struct {
	Kind uint8
	K, V uint64
}

// Result is one operation's outcome inside a successfully applied
// batch: V/OK for gets (OK = key present), OK for dels (present before
// removal), OK always true for puts.
type Result struct {
	V  uint64
	OK bool
}

// Stats snapshots one store's occupancy and engine-specific counters.
// Backend-specific fields are zero for backends they don't apply to.
type Stats struct {
	// Backend is the store's backend name ("pangolin", "logstore").
	Backend string
	// Objects counts live objects (pangolin: committed live allocator
	// objects — a node per key for the trees, one per 61-pair segment
	// for the hashmap, plus structure-internal ones; logstore: index
	// entries, one per live key).
	Objects int
	// Bytes is the store's occupied bytes (pangolin: reserved heap
	// bytes; logstore: on-disk segment bytes including dead records).
	Bytes uint64

	// Log-engine counters (logstore only).
	Segments      int    // data segment files currently on disk
	Compactions   uint64 // sealed segments merged away since open
	MergedRecords uint64 // live records carried forward by merges
	DeadRecords   uint64 // records overwritten/deleted but not yet merged away
	// QuarantinedSegments counts segments parked by a merge that met
	// corruption: their live records are held back from compaction until
	// an operator intervenes, so a nonzero count is an operator signal,
	// not routine housekeeping (logstore only).
	QuarantinedSegments int

	// MVCC snapshot counters (OpenSnapshot's version buffer).
	SnapshotPins     int // distinct generations currently pinned
	VersionsRetained int // superseded versions held for pinned snapshots
}

// Store is one shard's storage engine. See the package comment for the
// threading contract.
type Store interface {
	// Backend returns the backend name (one of Backends()).
	Backend() string
	// Ordered reports whether Scan visits keys in ascending order;
	// unordered backends still visit every in-range key exactly once.
	Ordered() bool
	// Get returns the value for k, verified as strongly as the backend
	// can (pangolin: checksum-verified with online repair; logstore:
	// CRC-framed record read). This is the owner-path read.
	Get(k uint64) (uint64, bool, error)
	// Scan calls fn for every pair with lo <= k <= hi until fn returns
	// false, following the kv.Map iteration contract: ascending when
	// Ordered, unordered-but-complete otherwise, and any mid-scan read
	// failure aborts the walk with that error — never a partial
	// iteration that looks complete.
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
	// Apply executes ops in order as one atomic batch — the group-commit
	// unit: one log persist / one fence / one parity pass for pangolin,
	// one contiguous committed append for logstore. A Get inside the
	// batch observes the batch's earlier ops. On error nothing is
	// applied and the returned results are nil; the shard worker then
	// retries each op as its own single-op batch for per-op verdicts.
	// The returned slice is scratch owned by the store, valid only until
	// the next Apply on the same store: callers must copy out anything
	// they retain past that point (the shard worker consumes results
	// synchronously before its next store access, so this is free there).
	Apply(ops []Op) ([]Result, error)
	// Save persists the store durably (pangolin: the snapshot file;
	// logstore: fsync segments). Called from the owner goroutine with no
	// batch in flight.
	Save() error
	// CrashSave simulates a power failure: it persists a crash image —
	// what the media would hold if the machine died now, unpersisted
	// writes lost per the backend's model — WITHOUT disturbing the live
	// store. Reopening the shard then recovers exactly that image. The
	// owner calls it between transactions, where pangolin has flushed and
	// fenced every store, so its crash image is its saved image.
	CrashSave(seed int64) error
	// ScrubStep runs one bounded background-maintenance step: the
	// maintenance scheduler's tick unit. For pangolin this advances the
	// incremental scrubber (verify + repair one bounded chunk); for
	// logstore it advances merge/compaction when due and a CRC-verify
	// cursor otherwise. done reports a completed full cycle over the
	// store's state, after which the cursor starts over.
	ScrubStep() (pangolin.ScrubReport, bool, error)
	// NewScrubPass starts one full integrity pass: the SCRUB wire op
	// steps it to its fixpoint.
	NewScrubPass() ScrubPass
	// ChecksumsVerified reports whether scrub passes actually verify
	// per-object integrity (false for checksum-less pangolin modes), so
	// a merged report cannot pass "0 bad objects" off as "verified
	// clean".
	ChecksumsVerified() bool
	// OpenSnapshot pins the store's current committed generation and
	// returns a Snapshot whose reads resolve at exactly that generation
	// while commits proceed (overwritten versions stay in the store's
	// VersionBuffer for as long as the pin is held). Called from the
	// owner goroutine only, so a pin never lands mid-batch; Release is
	// safe from any goroutine.
	OpenSnapshot() (*Snapshot, error)
	// Stats snapshots occupancy and engine counters.
	Stats() Stats
	// Close releases the store without saving.
	Close() error
	// ReadView returns the store's concurrent read handle.
	ReadViewer
}

// View is a concurrent read handle: pure reads, safe from any number of
// goroutines while the owner is quiescent (the reader-gate discipline —
// see the package comment). Faults surface as typed errors
// (*pangolin.CorruptionError, poison) instead of being repaired; the
// caller routes failed reads through the owner.
type View interface {
	Get(k uint64) (uint64, bool, error)
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
}

// ReadViewer is the lock-free read fast path every Store provides: its
// View serves Get/Scan from callers' goroutines under the shard reader
// gate, no worker hop.
type ReadViewer interface {
	ReadView() (View, error)
}

// FaultInjector is the INJECT capability (§4.6 fault injection):
// corrupt a pseudo-randomly chosen live object so tests can prove
// maintenance heals a live shard.
// Returns false when nothing could be injected (no live objects).
// Backends without self-repair deliberately do not implement it —
// injected corruption they cannot heal would read as client errors, not
// as a maintenance proof.
type FaultInjector interface {
	InjectFault(seed int64) bool
}

// Reverifier is the repair-retry capability of a backend whose
// owner-path reads verify each object against its checksum, repair a
// mismatch from redundancy, and skip an object verified since its last
// modification (pangolin). An op that met corruption behind such an
// object — a pointer scribbled after its node was verified, followed
// unverified — is retried once after ForgetVerified, and the retry
// re-verifies, and so repairs, its whole path.
type Reverifier interface {
	// ForgetVerified makes the next owner-path reads verify every object
	// they visit. It reports false when the store keeps no checksums, so
	// a retry would verify nothing.
	ForgetVerified() bool
	// Repaired counts the pages the store has repaired online since it
	// opened.
	Repaired() uint64
}

// ScrubPass is one full integrity pass in progress, stepped to its
// fixpoint by the owner goroutine with client work interleaved between
// steps.
type ScrubPass interface {
	Step() (rep pangolin.ScrubReport, done bool, err error)
}

// Backend names.
const (
	BackendPangolin = "pangolin"
	BackendLog      = "logstore"
)

// Backends returns the selectable backend names.
func Backends() []string { return []string{BackendPangolin, BackendLog} }
