package nvm

import (
	"io"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"
)

const linesPerPage = PageSize / CacheLineSize // 64: one mask bit per line

// pageRec tracks the non-persistent cache lines of one 4 KB page. Bit i of a
// mask is the page's i-th line.
type pageRec struct {
	dirty   uint64 // written since last persistent; old holds the line's persistent image
	flushed uint64 // subset of dirty: a flush was issued and no store has followed it
	// old holds the pre-images of the dirty lines (the rest is stale). Kept
	// as words so the atomic capture can store the 8-byte values it loads.
	old [PageSize / 8]uint64
}

func (r *pageRec) oldBytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&r.old[0])), PageSize)
}

// maxFreeRecs bounds the record free list, and with it what tracking keeps
// beyond the lines that are dirty right now: 128 records of ~4 KB, half a
// megabyte per device. A commit dirties a page or so per object it writes
// (plus its parity page and the log lane) and its Fences retire them all, so
// records cycle between the table and this list and the commit path
// allocates — and zeroes — nothing once the list is warm.
const maxFreeRecs = 128

// tracker is the persistence bookkeeping behind Options.TrackPersistence:
// one table indexed by page number, a record only for pages that hold a
// dirty line. Every operation is one lock plus mask arithmetic per page it
// touches. A device without the option has a nil tracker: it never calls
// the store, flush and fence methods, and the others return at once.
type tracker struct {
	mu      sync.Mutex
	pages   []*pageRec // by page number; nil: every line of the page is persistent
	stored  []bool     // by page number: stored to since the device was made; if not, all zero
	pending []uint64   // pages that may hold flushed lines; drained by Fence
	free    []*pageRec // retired records, at most maxFreeRecs
	nDirty  int        // dirty lines over all pages
}

func newTracker(size uint64) *tracker {
	return &tracker{pages: make([]*pageRec, size/PageSize), stored: make([]bool, size/PageSize)}
}

// retire returns page p's record to the free list once no line of it is
// dirty. Caller holds t.mu.
func (t *tracker) retire(p uint64, rec *pageRec) {
	if rec.dirty != 0 {
		return
	}
	t.pages[p] = nil
	if len(t.free) < maxFreeRecs {
		t.free = append(t.free, rec)
	}
}

// eachPage calls fn with the page number and line mask of every page that
// [off, off+n) overlaps, in address order.
func eachPage(off, n uint64, fn func(p, mask uint64)) {
	if n == 0 {
		return
	}
	first, last := off/CacheLineSize, (off+n-1)/CacheLineSize
	for p := first / linesPerPage; p <= last/linesPerPage; p++ {
		lo, hi := uint64(0), uint64(linesPerPage-1)
		if p == first/linesPerPage {
			lo = first % linesPerPage
		}
		if p == last/linesPerPage {
			hi = last % linesPerPage
		}
		fn(p, ^uint64(0)>>(linesPerPage-1-(hi-lo))<<lo)
	}
}

// capture marks every line of [off, off+n) dirty and un-flushed, first
// saving the image of each line that was persistent until now. mem is the
// device's bytes; words, when non-nil, is the same memory as 8-byte words
// and asks for the image to be read with atomic loads.
//
// The atomic form is for the stores that may run concurrently on one line
// (Store64, Xor64, AtomicXorRange: small parity updates share range-locks,
// §3.5). A neighbour may be mid-update while the image is taken, so the
// image is not a snapshot of the line at one instant: every word of it is a
// value that word held at some moment since the line was last persistent.
// That is the guarantee §2.3 gives for NVMM itself — aligned 8-byte stores
// are atomic, a line is not — so a crash image built from it is one the
// hardware could have produced. Plain writes keep a plain copy: two of
// those overlapping on a line race on real memory too.
func (t *tracker) capture(mem []byte, words []uint64, off, n uint64) {
	t.mu.Lock()
	eachPage(off, n, func(p, mask uint64) {
		t.stored[p] = true
		rec := t.pages[p]
		if rec == nil {
			if k := len(t.free); k > 0 {
				rec, t.free[k-1] = t.free[k-1], nil
				t.free = t.free[:k-1]
			} else {
				rec = new(pageRec)
			}
			t.pages[p] = rec
		}
		fresh := mask &^ rec.dirty
		rec.dirty |= mask
		rec.flushed &^= mask // overwritten since the flush
		t.nDirty += bits.OnesCount64(fresh)
		// Save each run of fresh lines with one copy.
		for fresh != 0 {
			lo := uint64(bits.TrailingZeros64(fresh))
			run := uint64(bits.TrailingZeros64(^(fresh >> lo)))
			fresh &^= (^uint64(0) >> (linesPerPage - run)) << lo
			from, to := lo*CacheLineSize, (lo+run)*CacheLineSize
			if words == nil {
				copy(rec.oldBytes()[from:to], mem[p*PageSize+from:p*PageSize+to])
				continue
			}
			base := p * PageSize / 8
			for w := from / 8; w < to/8; w++ {
				rec.old[w] = atomic.LoadUint64(&words[base+w])
			}
		}
	})
	t.mu.Unlock()
}

// markFlushed records a flush of the dirty lines in [off, off+n).
func (t *tracker) markFlushed(off, n uint64) {
	t.mu.Lock()
	eachPage(off, n, func(p, mask uint64) {
		rec := t.pages[p]
		if rec == nil {
			return
		}
		if mask &= rec.dirty &^ rec.flushed; mask == 0 {
			return
		}
		if rec.flushed == 0 {
			t.pending = append(t.pending, p)
		}
		rec.flushed |= mask
	})
	t.mu.Unlock()
}

// fence makes every flushed line persistent: it stops being tracked. A
// line stored to after its flush lost its flushed bit and stays dirty.
// pending may name a page twice, or one whose record has since been retired
// or reused; the masks decide, the list only says where to look.
func (t *tracker) fence() {
	t.mu.Lock()
	for _, p := range t.pending {
		if rec := t.pages[p]; rec != nil && rec.flushed != 0 {
			t.nDirty -= bits.OnesCount64(rec.flushed)
			rec.dirty &^= rec.flushed
			rec.flushed = 0
			t.retire(p, rec)
		}
	}
	t.pending = t.pending[:0]
	t.mu.Unlock()
}

// drop forgets the lines of [off, off+n): their current contents become
// the persistent image.
func (t *tracker) drop(off, n uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	eachPage(off, n, func(p, mask uint64) {
		t.stored[p] = true
		if rec := t.pages[p]; rec != nil {
			t.nDirty -= bits.OnesCount64(rec.dirty & mask)
			rec.dirty &^= mask
			rec.flushed &^= mask
			t.retire(p, rec)
		}
	})
	t.mu.Unlock()
}

// reset forgets every line.
func (t *tracker) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for p, rec := range t.pages {
		if rec != nil {
			rec.dirty, rec.flushed = 0, 0
			t.retire(uint64(p), rec)
		}
	}
	t.pending = t.pending[:0]
	t.nDirty = 0
	t.mu.Unlock()
}

func (t *tracker) dirtyLines() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nDirty
}

// restore puts the persistent image of the lines in mask back into page, a
// copy of the record's page.
func (r *pageRec) restore(page []byte, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		from := uint64(bits.TrailingZeros64(mask)) * CacheLineSize
		copy(page[from:from+CacheLineSize], r.oldBytes()[from:])
	}
}

// revert rewrites img, a copy of the device's bytes, into a post-crash
// image: each dirty line goes back to its persistent image, or under
// CrashEvictRandom keeps its new contents on a coin flip. Pages and lines
// are visited in address order, so the image is a function of the device's
// state and the seed alone and a failing sweep seed can be replayed.
func (t *tracker) revert(img []byte, mode CrashMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	t.mu.Lock()
	for p, rec := range t.pages {
		if rec == nil {
			continue
		}
		lost := rec.dirty
		if mode == CrashEvictRandom {
			for dirty := rec.dirty; dirty != 0; dirty &= dirty - 1 {
				if rng.Intn(2) != 0 {
					lost &^= dirty & -dirty // evicted in time: keeps its new contents
				}
			}
		}
		rec.restore(img[uint64(p)*PageSize:][:PageSize], lost)
	}
	t.mu.Unlock()
}

// writeStrict writes to w what revert(CrashStrict) would make of a copy of
// mem, a page at a time: runs of pages with no dirty line go out straight
// from mem, a page with one through a 4 KB buffer, so a save allocates
// nothing the device's size. A nil tracker writes mem as it is.
func (t *tracker) writeStrict(w io.Writer, mem []byte) error {
	if t == nil {
		_, err := w.Write(mem)
		return err
	}
	var page [PageSize]byte
	next := uint64(0) // first page not yet written
	for p := range uint64(len(t.pages)) {
		t.mu.Lock()
		rec := t.pages[p]
		if rec != nil {
			copy(page[:], mem[p*PageSize:])
			rec.restore(page[:], rec.dirty)
		}
		t.mu.Unlock()
		if rec == nil {
			continue
		}
		if _, err := w.Write(mem[next*PageSize : p*PageSize]); err != nil {
			return err
		}
		if _, err := w.Write(page[:]); err != nil {
			return err
		}
		next = p + 1
	}
	_, err := w.Write(mem[next*PageSize:])
	return err
}
