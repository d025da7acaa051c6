// Package nvm simulates byte-addressable non-volatile main memory (NVMM).
//
// The paper's testbed is Intel Optane DC Persistent Memory exposed to
// user-space through DAX-mmap. This package provides the closest synthetic
// equivalent: a byte-addressable Device with an explicit persistence model
// that mirrors the x86 primitives the paper relies on:
//
//   - stores become visible immediately but are not persistent,
//   - Flush (CLWB analog) schedules cache lines for write-back,
//   - Fence (SFENCE analog) makes previously flushed lines persistent,
//   - WriteNT models non-temporal stores (visible and flushed, needs Fence).
//
// Unlike real hardware, the simulation can *demonstrate* crashes: CrashCopy
// produces the device state after a power failure, reverting lines that were
// never made persistent (or, in CrashEvictRandom mode, keeping an arbitrary
// subset of them — legal on real hardware because caches may evict lines at
// any time). Crash-consistency tests sweep crash points systematically via
// the persist hook. What it takes to know which lines those are — the
// pre-image of every line stored to since it was last persistent, and
// whether it has been flushed since — lives in a table indexed by page
// (track.go), so tracking costs a store, flush or fence one lock and mask
// arithmetic per 4 KB page, not a map operation per line.
//
// The package also models the error machinery of §2.2 of the paper:
//
//   - Poison marks a 4 KB page as having an uncorrectable media error;
//     subsequent reads fail with *PoisonError (the SIGBUS analog),
//   - RepairPage rewrites a full page and clears the poison (the ACPI
//     bad-page remap analog),
//   - Scribble overwrites media directly, bypassing the library, emulating
//     software corruption from wild pointers or buffer overruns.
package nvm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/pangolin-go/pangolin/internal/striped"
)

const (
	// PageSize is the media-error granularity. Linux manages memory
	// failures at page granularity; Pangolin assumes an error poisons a
	// 4 KB page (§2.2).
	PageSize = 4096

	// CacheLineSize is the persistence granularity: flushes and crash
	// revert operate on 64-byte lines, matching x86 CLWB.
	CacheLineSize = 64
)

// CrashMode selects how a simulated power failure treats lines that were
// written but never made persistent (never flushed, or flushed but not yet
// fenced).
type CrashMode int

const (
	// CrashStrict reverts every non-persistent line to its last
	// persistent image. This is the most adversarial deterministic
	// outcome.
	CrashStrict CrashMode = iota

	// CrashEvictRandom independently keeps or reverts each
	// non-persistent line, modeling arbitrary cache evictions. Recovery
	// must tolerate every such subset.
	CrashEvictRandom
)

// PoisonError reports a load from a poisoned (uncorrectable media error)
// page. It is the simulation's stand-in for the SIGBUS an MCE would raise;
// Off is the faulting address the paper's signal handler would extract.
type PoisonError struct {
	// Off is the byte offset of the start of the poisoned page.
	Off uint64
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("nvm: uncorrectable media error at page offset %#x", e.Off)
}

// Stats counts device operations. All fields are updated atomically and may
// be read concurrently with device use. The read counters are striped: every
// object access on every reader core bumps them, and one shared word would
// bounce between those cores.
type Stats struct {
	Reads        striped.Counter
	Writes       atomic.Uint64
	BytesRead    striped.Counter
	BytesWritten atomic.Uint64
	Flushes      atomic.Uint64
	Fences       atomic.Uint64
	BytesFlushed atomic.Uint64
	PoisonFaults atomic.Uint64
}

// Device is a simulated NVMM module. The zero value is not usable; create
// devices with New.
//
// Concurrency: distinct byte ranges may be written concurrently. The
// persistence-tracking structures are internally synchronized. Overlapping
// concurrent plain writes race exactly as they would on real memory; use the
// atomic 8-byte operations for shared words.
type Device struct {
	size  uint64
	words []uint64 // backing store; kept as words to guarantee alignment
	mem   []byte   // byte view of words

	trk *tracker // nil without Options.TrackPersistence

	poisonMu sync.RWMutex
	poisoned map[uint64]struct{} // page indices
	nPoison  atomic.Int64

	// persistHook, when set, runs before every Flush and Fence takes
	// effect. Crash-sweep tests use it to stop the world at a chosen
	// persistence point.
	persistHook atomic.Pointer[func()]

	stats Stats
}

// Options configures a Device.
type Options struct {
	// TrackPersistence enables dirty-line tracking (see tracker) so
	// CrashCopy can compute post-crash states. Disabling it makes
	// Flush/Fence pure counters; use only for throughput experiments that
	// never simulate crashes.
	TrackPersistence bool
}

// New creates a zeroed device of the given size in bytes, rounded up to a
// whole page. Persistence tracking is enabled unless opts disables it.
func New(size uint64, opts Options) *Device {
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	d := &Device{
		size:     size,
		words:    make([]uint64, size/8),
		poisoned: make(map[uint64]struct{}),
	}
	d.mem = unsafe.Slice((*byte)(unsafe.Pointer(&d.words[0])), size)
	if opts.TrackPersistence {
		d.trk = newTracker(size)
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Stats returns the device's operation counters.
func (d *Device) Stats() *Stats { return &d.stats }

// SetPersistHook installs fn to run before each Flush and Fence. A nil fn
// removes the hook. Intended for crash-point sweeps in tests.
func (d *Device) SetPersistHook(fn func()) {
	if fn == nil {
		d.persistHook.Store(nil)
		return
	}
	d.persistHook.Store(&fn)
}

func (d *Device) runHook() {
	if p := d.persistHook.Load(); p != nil {
		(*p)()
	}
}

func (d *Device) checkRange(off, n uint64) {
	if off+n < off || off+n > d.size {
		panic(fmt.Sprintf("nvm: access [%#x,%#x) out of range (size %#x)", off, off+n, d.size))
	}
}

// capture saves the persistent image of every line in [off, off+n) that
// is not already dirty, and marks those lines dirty, ahead of a plain store.
func (d *Device) capture(off, n uint64) { d.trk.capture(d.mem, nil, off, n) }

// captureAtomic is capture ahead of the atomic 8-byte stores, which may be
// running on the same line from another goroutine: the image is read with
// the primitive they write with.
func (d *Device) captureAtomic(off, n uint64) { d.trk.capture(d.mem, d.words, off, n) }

// ReadAt copies len(buf) bytes at off into buf. It fails with *PoisonError
// if any page in the range is poisoned, without transferring data — the
// analog of a load taking a machine-check exception.
func (d *Device) ReadAt(buf []byte, off uint64) error {
	n := uint64(len(buf))
	d.checkRange(off, n)
	if err := d.CheckPoison(off, n); err != nil {
		return err
	}
	copy(buf, d.mem[off:off+n])
	d.stats.Reads.Add(1)
	d.stats.BytesRead.Add(n)
	return nil
}

// WriteAt stores data at off. The store is immediately visible but not
// persistent until flushed and fenced.
func (d *Device) WriteAt(off uint64, data []byte) {
	n := uint64(len(data))
	d.checkRange(off, n)
	d.capture(off, n)
	copy(d.mem[off:off+n], data)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// WriteNT stores data at off with non-temporal semantics: the affected
// lines are treated as already flushed (a Fence is still required for
// persistence). Pangolin uses NT stores for object write-back (§4.3).
func (d *Device) WriteNT(off uint64, data []byte) {
	d.WriteAt(off, data)
	d.trk.markFlushed(off, uint64(len(data)))
	d.stats.Flushes.Add(1)
	d.stats.BytesFlushed.Add(uint64(len(data)))
}

// Memset fills [off, off+n) with b.
func (d *Device) Memset(off uint64, b byte, n uint64) {
	d.checkRange(off, n)
	d.capture(off, n)
	s := d.mem[off : off+n]
	for i := range s {
		s[i] = b
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// ZeroAll zeroes the entire device and makes the zeros immediately
// persistent, discarding all line tracking. Pool creation uses it: the
// prior contents are irrelevant (a crash mid-create simply means no pool),
// so there is no point keeping gigabytes of undo images for the wipe.
func (d *Device) ZeroAll() {
	for i := range d.words {
		d.words[i] = 0
	}
	d.trk.reset()
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(d.size)
}

// Slice returns a direct view of [off, off+n). It performs no poison check
// and no persistence tracking: callers that mutate through the view must
// call MarkDirty first (before the mutation) and Persist afterwards, and
// callers that read must call CheckPoison themselves. The pmemobj baseline
// uses mutable views (direct DAX writes); Pangolin itself only reads
// through views.
func (d *Device) Slice(off, n uint64) []byte {
	d.checkRange(off, n)
	return d.mem[off : off+n : off+n]
}

// MarkDirty captures the persistent images of [off, off+n) before a caller
// mutates the range through a Slice view.
func (d *Device) MarkDirty(off, n uint64) {
	d.checkRange(off, n)
	d.capture(off, n)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// Flush issues write-backs (CLWB) for every cache line overlapping
// [off, off+n). Lines become persistent only after a subsequent Fence.
func (d *Device) Flush(off, n uint64) {
	d.checkRange(off, n)
	d.runHook()
	d.trk.markFlushed(off, n)
	d.stats.Flushes.Add(1)
	d.stats.BytesFlushed.Add(n)
}

// Fence makes every previously flushed line persistent (SFENCE).
func (d *Device) Fence() {
	d.runHook()
	d.stats.Fences.Add(1)
	d.trk.fence()
}

// Persist flushes [off, off+n) and fences: the common "make this range
// durable now" operation (pmemobj_persist analog).
func (d *Device) Persist(off, n uint64) {
	d.Flush(off, n)
	d.Fence()
}

// word returns a pointer to the 8-byte word at off, which must be 8-aligned.
func (d *Device) word(off uint64) *uint64 {
	if off%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned 8-byte access at %#x", off))
	}
	d.checkRange(off, 8)
	return &d.words[off/8]
}

// Load64 atomically loads the 8-byte word at off (must be 8-aligned).
// Unlike ReadAt it does not fail on poison: callers of the atomic API manage
// metadata words whose pages are replicated rather than parity-protected.
func (d *Device) Load64(off uint64) uint64 {
	return atomic.LoadUint64(d.word(off))
}

// Store64 atomically stores v at off (8-aligned). x86 guarantees aligned
// 8-byte stores update NVMM atomically (§2.3); this is the primitive
// libpmemobj's atomic-style updates and Pangolin's commit flags rely on.
func (d *Device) Store64(off uint64, v uint64) {
	d.captureAtomic(off, 8)
	atomic.StoreUint64(d.word(off), v)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(8)
}

// Xor64 atomically XORs v into the word at off (8-aligned), the analog of
// the atomic XOR instruction Pangolin uses for lock-free small parity
// updates (§3.5).
func (d *Device) Xor64(off uint64, v uint64) {
	d.captureAtomic(off, 8)
	d.xorWord(off, v)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(8)
}

func (d *Device) xorWord(off uint64, v uint64) {
	p := d.word(off)
	for {
		o := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, o, o^v) {
			return
		}
	}
}

// AtomicXorRange XORs delta into [off, off+len(delta)) using per-word
// atomic XORs. off must be 8-aligned and len(delta) a multiple of 8 (pad
// with zeros — XOR-ing zero is a no-op). Concurrent AtomicXorRange calls
// over overlapping ranges commute, which is what lets small parity
// updates share range-locks (§3.5). Persistence tracking is captured once
// for the whole range, not per word.
func (d *Device) AtomicXorRange(off uint64, delta []byte) {
	n := uint64(len(delta))
	if off%8 != 0 || n%8 != 0 {
		panic("nvm: AtomicXorRange requires 8-byte alignment")
	}
	d.checkRange(off, n)
	d.captureAtomic(off, n)
	for i := uint64(0); i < n; i += 8 {
		w := uint64(delta[i]) | uint64(delta[i+1])<<8 | uint64(delta[i+2])<<16 |
			uint64(delta[i+3])<<24 | uint64(delta[i+4])<<32 | uint64(delta[i+5])<<40 |
			uint64(delta[i+6])<<48 | uint64(delta[i+7])<<56
		if w != 0 {
			d.xorWord(off+i, w)
		}
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// CheckPoison fails with *PoisonError if any page overlapping [off, off+n)
// is poisoned.
func (d *Device) CheckPoison(off, n uint64) error {
	if d.nPoison.Load() == 0 {
		return nil
	}
	d.poisonMu.RLock()
	defer d.poisonMu.RUnlock()
	first := off / PageSize
	last := first
	if n > 0 {
		last = (off + n - 1) / PageSize
	}
	for p := first; p <= last; p++ {
		if _, bad := d.poisoned[p]; bad {
			d.stats.PoisonFaults.Add(1)
			return &PoisonError{Off: p * PageSize}
		}
	}
	return nil
}

// Poison marks the page containing off as having an uncorrectable media
// error. The page's current contents are destroyed (zeroed), as a real
// media failure loses the data.
func (d *Device) Poison(off uint64) {
	d.checkRange(off, 1)
	page := off / PageSize
	d.poisonMu.Lock()
	if _, ok := d.poisoned[page]; !ok {
		d.poisoned[page] = struct{}{}
		d.nPoison.Add(1)
	}
	d.poisonMu.Unlock()
	base := page * PageSize
	d.capture(base, PageSize)
	s := d.mem[base : base+PageSize]
	for i := range s {
		s[i] = 0
	}
}

// IsPoisoned reports whether the page containing off is poisoned.
func (d *Device) IsPoisoned(off uint64) bool {
	if d.nPoison.Load() == 0 {
		return false
	}
	d.poisonMu.RLock()
	defer d.poisonMu.RUnlock()
	_, ok := d.poisoned[off/PageSize]
	return ok
}

// PoisonedPages returns the byte offsets of all poisoned pages, in
// unspecified order. The pool-open recovery path uses it the way the paper
// consumes the kernel's known-bad-page list.
func (d *Device) PoisonedPages() []uint64 {
	d.poisonMu.RLock()
	defer d.poisonMu.RUnlock()
	out := make([]uint64, 0, len(d.poisoned))
	for p := range d.poisoned {
		out = append(out, p*PageSize)
	}
	return out
}

// RepairPage writes a full page of new data at the page containing off and
// clears its poison, persisting the result. This models the ACPI flow where
// rewriting a failed page remaps it to functioning cells (§2.2).
func (d *Device) RepairPage(off uint64, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("nvm: RepairPage needs exactly %d bytes, got %d", PageSize, len(data))
	}
	page := off / PageSize
	base := page * PageSize
	d.checkRange(base, PageSize)
	d.poisonMu.Lock()
	if _, ok := d.poisoned[page]; ok {
		delete(d.poisoned, page)
		d.nPoison.Add(-1)
	}
	d.poisonMu.Unlock()
	d.WriteAt(base, data)
	d.Persist(base, PageSize)
	return nil
}

// Scribble overwrites [off, off+n) with bytes drawn from rng, bypassing the
// library entirely — the media simply changes, checksums and parity do not.
// It models corruption by software bugs ("scribbles", §1). The scribbled
// lines are treated as immediately persistent.
func (d *Device) Scribble(off, n uint64, rng *rand.Rand) {
	d.checkRange(off, n)
	s := d.mem[off : off+n]
	for i := range s {
		s[i] = byte(rng.Intn(256))
	}
	d.trk.drop(off, n)
}

// DirtyLines reports how many cache lines are currently tracked as not yet
// persistent. Useful in tests asserting that commit paths persist
// everything they write.
func (d *Device) DirtyLines() int { return d.trk.dirtyLines() }

// CrashCopy returns a new Device holding the state the media would have
// after a power failure at this instant. In CrashStrict mode every
// non-persistent line reverts to its last persistent image; in
// CrashEvictRandom mode each such line independently either reverts or
// keeps its new contents (cache evictions are unordered), driven by seed.
// Poison marks survive the crash, as real bad-page records do. The source
// device is not modified.
func (d *Device) CrashCopy(mode CrashMode, seed int64) *Device {
	if d.trk == nil {
		panic("nvm: CrashCopy requires TrackPersistence")
	}
	nd := New(d.size, Options{TrackPersistence: true})
	copy(nd.mem, d.mem)
	d.trk.revert(nd.mem, mode, seed)
	d.poisonMu.RLock()
	for p := range d.poisoned {
		nd.poisoned[p] = struct{}{}
		nd.nPoison.Add(1)
	}
	d.poisonMu.RUnlock()
	return nd
}
