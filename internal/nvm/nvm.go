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
// any time). The device is left untouched, so a crash sweep checks each
// persist point's image from the persist hook of one forward run, reverted
// into a reused device (CrashCopyInto). What it takes to know which lines
// are not persistent — the pre-image of every line stored to since it was
// last persistent, and whether it has been flushed since — lives in a table
// indexed by page (track.go), so tracking costs a store, flush or fence one
// lock and mask arithmetic per 4 KB page, not a map operation per line; an
// untracked device (a served shard) pays none of it.
//
// Memory comes in two kinds, by the same option. A tracked device is a Go
// slice with Go's lifetime: library pools, tests, crash images and the
// benchmark's kernels. An untracked device is a served shard's, and its
// memory is an anonymous mapping outside the Go heap — the stand-in for
// the paper's DAX-mapped NVMM — that its owner releases with Close; the
// kernel backs only the pages stored to, so it costs what it holds, not
// its capacity. A race build keeps untracked devices on the heap too,
// where the race detector can see them.
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
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
//
// An untracked device's memory is a mapping its owner releases with
// Close, after which every view into it (Slice, and the views pools hand
// out) is invalid; nothing unmaps it implicitly.
type Device struct {
	size  uint64
	words []uint64 // word view of mem, for the atomic 8-byte operations
	mem   []byte   // backing store: a Go slice when tracked, else mapMem's

	trk    *tracker // nil without Options.TrackPersistence
	closed atomic.Bool

	poisonMu sync.RWMutex
	poisoned map[uint64]struct{} // page indices
	nPoison  atomic.Int64

	// persistHook, when set, runs before every Flush and Fence takes
	// effect. Crash-sweep tests use it to check the crash image of a
	// chosen persistence point while the run goes on.
	persistHook atomic.Pointer[func()]

	stats Stats
}

// Options configures a Device.
type Options struct {
	// TrackPersistence enables dirty-line tracking (see tracker) so
	// CrashCopy can compute post-crash states. It is for crash
	// simulation mid-transaction: library pools, tests and the
	// benchmark's kernels. A served shard is untracked and imaged only at
	// quiescence, where memory as it is is the one post-crash image.
	//
	// The option also decides where the memory lives. A tracked device is
	// a Go slice. An untracked one is an anonymous mapping (a heap slice
	// in race builds) that its owner must Close.
	TrackPersistence bool
}

// unclosed holds the untracked devices built and not yet closed, each
// with the call stack that built it: MappedBytes sums them and Unclosed
// names their builders, so a test binary can fail on a device it never
// released and say which test built it.
var unclosed = struct {
	sync.Mutex
	devs map[*Device][]uintptr
}{devs: make(map[*Device][]uintptr)}

// MappedBytes returns the bytes of untracked devices built and not yet
// closed, race builds included (where they are heap slices, released
// all the same).
func MappedBytes() int64 {
	unclosed.Lock()
	defer unclosed.Unlock()
	var n int64
	for d := range unclosed.devs {
		n += int64(d.size)
	}
	return n
}

// Unclosed describes each untracked device not yet closed by the test,
// benchmark or fuzz function that built it (or, outside one, New's
// caller) and its size.
func Unclosed() []string {
	unclosed.Lock()
	defer unclosed.Unlock()
	var out []string
	for d, pcs := range unclosed.devs {
		frames := runtime.CallersFrames(pcs)
		by := ""
		for {
			f, more := frames.Next()
			if by == "" {
				by = f.Function
			}
			if name := f.Function[strings.LastIndexByte(f.Function, '.')+1:]; strings.HasPrefix(name, "Test") ||
				strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz") {
				by = f.Function
				break
			}
			if !more {
				break
			}
		}
		out = append(out, fmt.Sprintf("%d-byte device built by %s", d.size, by))
	}
	slices.Sort(out)
	return out
}

// New creates a zeroed device of the given size in bytes, rounded up to a
// whole page. The zero Options build an untracked device, whose memory
// is a mapping the caller must release with Close.
func New(size uint64, opts Options) *Device {
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	d := &Device{
		size:     size,
		poisoned: make(map[uint64]struct{}),
	}
	if opts.TrackPersistence {
		w := make([]uint64, size/8)
		d.mem = unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), size)
		d.trk = newTracker(size)
	} else {
		d.mem = mapMem(size)
		pcs := make([]uintptr, 32)
		pcs = pcs[:runtime.Callers(2, pcs)]
		unclosed.Lock()
		unclosed.devs[d] = pcs
		unclosed.Unlock()
	}
	d.words = unsafe.Slice((*uint64)(unsafe.Pointer(&d.mem[0])), size/8)
	return d
}

// Close releases an untracked device's memory. Afterwards the device must
// not be read or written, and every slice into its memory is invalid: a
// load through one faults. The owner closes the device only once nothing
// can reach it. Close is idempotent, and on a tracked device it does
// nothing: that memory is Go's and lives as long as a reference to it.
func (d *Device) Close() {
	if d.trk != nil || !d.closed.CompareAndSwap(false, true) {
		return
	}
	mem := d.mem
	d.mem, d.words = nil, nil
	unmapMem(mem)
	unclosed.Lock()
	delete(unclosed.devs, d)
	unclosed.Unlock()
}

// Options returns the options the device was built with.
func (d *Device) Options() Options { return Options{TrackPersistence: d.trk != nil} }

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
// is not already dirty, and marks those lines dirty, ahead of a store. The
// atomic 8-byte stores, which may be running on the same line from another
// goroutine, pass d.words: the image is then read with the primitive they
// write with. On the store, flush and fence paths an untracked device
// makes no tracker call at all.
func (d *Device) capture(words []uint64, off, n uint64) {
	if d.trk != nil {
		d.trk.capture(d.mem, words, off, n)
	}
}

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
	d.capture(nil, off, n)
	copy(d.mem[off:off+n], data)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// WriteNT stores data at off with non-temporal semantics: the affected
// lines are treated as already flushed (a Fence is still required for
// persistence). Pangolin uses NT stores for object write-back (§4.3).
func (d *Device) WriteNT(off uint64, data []byte) {
	d.WriteAt(off, data)
	if d.trk != nil {
		d.trk.markFlushed(off, uint64(len(data)))
	}
	d.stats.Flushes.Add(1)
	d.stats.BytesFlushed.Add(uint64(len(data)))
}

// Memset fills [off, off+n) with b.
func (d *Device) Memset(off uint64, b byte, n uint64) {
	d.checkRange(off, n)
	d.capture(nil, off, n)
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
	d.capture(nil, off, n)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(n)
}

// Flush issues write-backs (CLWB) for every cache line overlapping
// [off, off+n). Lines become persistent only after a subsequent Fence.
func (d *Device) Flush(off, n uint64) {
	d.checkRange(off, n)
	d.runHook()
	if d.trk != nil {
		d.trk.markFlushed(off, n)
	}
	d.stats.Flushes.Add(1)
	d.stats.BytesFlushed.Add(n)
}

// Fence makes every previously flushed line persistent (SFENCE).
func (d *Device) Fence() {
	d.runHook()
	d.stats.Fences.Add(1)
	if d.trk != nil {
		d.trk.fence()
	}
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
	d.capture(d.words, off, 8)
	atomic.StoreUint64(d.word(off), v)
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(8)
}

// Xor64 atomically XORs v into the word at off (8-aligned), the analog of
// the atomic XOR instruction Pangolin uses for lock-free small parity
// updates (§3.5).
func (d *Device) Xor64(off uint64, v uint64) {
	d.capture(d.words, off, 8)
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
// atomic XORs over the 8-aligned words the range covers; the head and
// tail words XOR only delta's bytes, zeros elsewhere (XOR-ing zero is a
// no-op), so off and the length need no alignment and the caller builds
// no padded copy. Concurrent AtomicXorRange calls over overlapping
// ranges commute, which is what lets small parity updates share
// range-locks (§3.5). Persistence tracking is captured once for the
// whole aligned span, and the span is what the write counters record.
func (d *Device) AtomicXorRange(off uint64, delta []byte) {
	n := uint64(len(delta))
	d.checkRange(off, n)
	lo, hi := off&^7, (off+n+7)&^7
	d.checkRange(lo, hi-lo)
	d.capture(d.words, lo, hi-lo)
	for w := lo; w < hi; w += 8 {
		var v uint64
		if w >= off && w+8 <= off+n {
			v = binary.LittleEndian.Uint64(delta[w-off:])
		} else {
			for b := max(w, off); b < min(w+8, off+n); b++ {
				v |= uint64(delta[b-off]) << (8 * (b - w))
			}
		}
		if v != 0 {
			d.xorWord(w, v)
		}
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(hi - lo)
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
	d.capture(nil, base, PageSize)
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
// persistent; on an untracked device it is always 0. Useful in tests
// asserting that commit paths persist everything they write.
func (d *Device) DirtyLines() int { return d.trk.dirtyLines() }

// CrashCopy returns a new Device holding the state the media would have
// after a power failure at this instant: CrashCopyInto a fresh device.
func (d *Device) CrashCopy(mode CrashMode, seed int64) *Device {
	nd := New(d.size, Options{TrackPersistence: true})
	d.CrashCopyInto(nd, mode, seed)
	return nd
}

// CrashCopyInto overwrites dst, another tracked device of d's size that
// nothing is using, with the state the media would have after a power
// failure at this instant. In CrashStrict mode every non-persistent line
// reverts to its last persistent image; in CrashEvictRandom mode each such
// line independently either reverts or keeps its new contents (cache
// evictions are unordered), driven by seed. Poison marks survive the crash,
// as real bad-page records do. Of dst's past only its Stats stay; d is not
// modified.
func (d *Device) CrashCopyInto(dst *Device, mode CrashMode, seed int64) {
	if d.trk == nil || dst.trk == nil || dst == d || dst.size != d.size {
		panic("nvm: CrashCopy needs two tracked devices of one size (TrackPersistence)")
	}
	d.trk.mu.Lock()
	for p, stored := range d.trk.stored { // a page neither device stored to is zero in both
		if stored || dst.trk.stored[p] {
			copy(dst.mem[uint64(p)*PageSize:][:PageSize], d.mem[uint64(p)*PageSize:])
		}
	}
	copy(dst.trk.stored, d.trk.stored)
	d.trk.mu.Unlock()
	d.trk.revert(dst.mem, mode, seed)
	dst.trk.reset()
	dst.persistHook.Store(nil)
	d.poisonMu.RLock()
	dst.poisonMu.Lock()
	dst.poisoned = maps.Clone(d.poisoned)
	dst.nPoison.Store(int64(len(dst.poisoned)))
	dst.poisonMu.Unlock()
	d.poisonMu.RUnlock()
}
