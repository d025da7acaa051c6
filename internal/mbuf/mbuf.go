// Package mbuf implements micro-buffers (§3.2): DRAM shadow copies of
// NVMM objects that isolate transient writes from persistent data.
//
// A micro-buffer holds the full object image (header + user data) between
// two 64-bit canary words. Applications mutate only the shadow; commit
// checks the canaries before anything reaches NVMM, so buffer overruns are
// caught instead of propagated (the paper's canary mechanism). Modified
// ranges are tracked so commit can log, checksum, and parity-update only
// the bytes that changed.
//
// Each declared range carries its first image: the bytes it held when
// first declared, copied out of the buffer (or out of the verified image
// a caller diffs against) into the transaction's Arena. Under
// declare-then-write those are the bytes the object was verified with at
// open, so commit folds them into the incremental checksum and the
// parity delta (old ⊕ new, §3.5) without reading NVMM back.
package mbuf

import (
	"fmt"
	"sort"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// Flags describe a micro-buffer's life cycle.
type Flags uint32

const (
	// FlagAllocated marks a buffer backing an object allocated by this
	// transaction (the whole image is new).
	FlagAllocated Flags = 1 << iota
	// FlagFreed marks a buffer whose object this transaction freed.
	FlagFreed
)

// Range is a modified byte range, relative to the start of the object
// image (offset 0 is the object header; user data begins at
// layout.ObjHeaderSize).
type Range struct {
	Off, Len uint64
	// Old is the range's first image (Len bytes). MarkAllModified leaves
	// it nil: a fresh object's prior bytes are its slot's, which commit
	// reads from NVMM into it.
	Old []byte
}

// arenaMin is an Arena's first chunk: a few declared words, so a small
// transaction's first images cost one small allocation.
const arenaMin = 64

// arenaKeep bounds the chunk bytes an Arena keeps across reset.
const arenaKeep = 256 << 10

// Arena carves first images for one transaction's buffers. A carved
// slice stays valid until the arena's reset — its table's Release — so
// it lasts the transaction; a full chunk is followed by one twice its
// size, not grown. A reset arena carves its kept chunks again.
type Arena struct {
	chunks [][]byte // carve order; chunks[cur] is the one being carved
	cur    int
	filled bool // every uncarved byte holds PoisonByte (the poison hook)
}

// Alloc returns n bytes carved from the arena. A request larger than the
// next chunk would be gets an allocation of its own, which is not kept.
func (a *Arena) Alloc(n uint64) []byte {
	for ; a.cur < len(a.chunks); a.cur++ {
		if c := a.chunks[a.cur]; uint64(cap(c)-len(c)) >= n {
			return a.carve(n)
		}
	}
	next := uint64(arenaMin)
	if len(a.chunks) > 0 {
		next = 2 * uint64(cap(a.chunks[len(a.chunks)-1]))
	}
	if n > next {
		return make([]byte, n)
	}
	c := make([]byte, 0, next)
	if a.filled {
		fill(c[:next])
	}
	a.chunks = append(a.chunks, c)
	return a.carve(n)
}

// carve takes n bytes off chunks[cur], which has room for them.
func (a *Arena) carve(n uint64) []byte {
	c := a.chunks[a.cur]
	at := len(c)
	c = c[:at+int(n)]
	a.chunks[a.cur] = c
	out := c[at:len(c):len(c)]
	if a.filled {
		checkFill(out, "first-image arena chunk")
	}
	return out
}

// reset makes every kept chunk carvable again, keeping the first ones up
// to arenaKeep bytes. Slices carved before it must not be used after.
func (a *Arena) reset() {
	kept, poisoning := 0, poison.Load()
	for i, c := range a.chunks {
		if kept += cap(c); kept > arenaKeep {
			clear(a.chunks[i:])
			a.chunks = a.chunks[:i]
			break
		}
		if a.filled {
			checkFill(c[len(c):cap(c)], "first-image arena chunk")
		}
		if poisoning {
			fill(c[:cap(c)])
		}
		a.chunks[i] = c[:0]
	}
	a.cur, a.filled = 0, poisoning
}

// Buf is one micro-buffer.
type Buf struct {
	OID   layout.OID
	Flags Flags

	// OrigCsum is the object's stored checksum at open time, the base
	// for incremental refresh at commit.
	OrigCsum uint32

	canary  uint64
	backing []uint64 // head canary ⋯ image ⋯ tail canary, 8-aligned; cap is its size class
	size    uint64   // image bytes (header + data)
	ranges  []Range  // modified ranges, sorted, coalesced
	pos     int      // index in the owning Table's open-order list
	pooled  bool     // taken from a Table: recycled by its Release
	filled  bool     // freed under the poison hook: backing holds PoisonByte
}

// CanaryError reports a clobbered canary: the application overran (or
// underran) a micro-buffer. The transaction must abort to avoid
// propagating the corruption to NVMM (§3.2).
type CanaryError struct {
	OID  layout.OID
	Tail bool // true: overrun past the object; false: underrun before it
}

func (e *CanaryError) Error() string {
	side := "head"
	if e.Tail {
		side = "tail"
	}
	return fmt.Sprintf("mbuf: %s canary clobbered for object %#x (buffer overrun)", side, e.OID.Off)
}

// New creates a micro-buffer of the given image size. canary is the
// pool's secret canary value (per-object salted by the caller if desired).
// The buffer is the caller's for as long as it holds it; a transaction's
// buffers come from its Table (Table.Take) instead, and are recycled.
func New(oid layout.OID, size uint64, canary uint64) *Buf {
	b := &Buf{backing: make([]uint64, backingWords(size))}
	b.reset(oid, size, canary)
	return b
}

// backingWords is the backing a size-byte image needs: the image rounded
// up to whole words, between two canary words.
func backingWords(size uint64) int { return int(1 + (size+7)/8 + 1) }

// reset readies b, whose backing has room, to hold a size-byte image of
// oid between fresh canaries. The image bytes are left as they are.
func (b *Buf) reset(oid layout.OID, size, canary uint64) {
	words := backingWords(size)
	b.OID, b.Flags, b.OrigCsum = oid, 0, 0
	b.canary, b.size = canary, size
	b.backing = b.backing[:words]
	b.backing[0] = canary
	b.backing[words-1] = canary
	b.ranges = b.ranges[:0]
}

// Size returns the image size (header + user data).
func (b *Buf) Size() uint64 { return b.size }

// Footprint returns the DRAM bytes this buffer occupies (for the §4.2
// accounting): its backing, rounded up to its size class when a Table
// gave it out.
func (b *Buf) Footprint() uint64 { return uint64(cap(b.backing)) * 8 }

// Image returns the full object image (header + user data). The slice
// aliases the buffer; writes must be followed by MarkModified.
func (b *Buf) Image() []byte {
	return asBytes(b.backing[1:])[:b.size]
}

// UserData returns the user-data portion of the image.
func (b *Buf) UserData() []byte { return b.Image()[layout.ObjHeaderSize:] }

// Header decodes the buffered object header.
func (b *Buf) Header() layout.ObjHeader { return layout.DecodeObjHeader(b.Image()) }

// SetHeader encodes h into the buffered image (does not mark modified;
// allocation paths mark the whole image).
func (b *Buf) SetHeader(h layout.ObjHeader) { layout.EncodeObjHeader(b.Image(), h) }

// CheckCanaries verifies both canary words, identifying which side was
// clobbered.
func (b *Buf) CheckCanaries() error {
	if b.backing[0] != b.canary {
		return &CanaryError{OID: b.OID, Tail: false}
	}
	if b.backing[len(b.backing)-1] != b.canary {
		return &CanaryError{OID: b.OID, Tail: true}
	}
	return nil
}

// MarkModified declares that image bytes [off, off+n) will change and
// returns how many of them were not declared before. Each newly declared
// byte's first image is copied from from (an image of the object, indexed
// like Image) into a; bytes declared before keep the first image they
// have. Overlapping and adjacent ranges coalesce. The range is merged into
// the sorted list in place — binary-search the merge window, fold every
// overlapping or adjacent range into one, shift the tail once — so a
// buffer collecting k ranges costs O(k log k) plus the shifts and the
// merged first images, not a re-sort per call.
func (b *Buf) MarkModified(off, n uint64, from []byte, a *Arena) (added uint64) {
	if n == 0 {
		return 0
	}
	if off+n > b.size {
		panic(fmt.Sprintf("mbuf: modified range [%d,%d) exceeds object size %d", off, off+n, b.size))
	}
	rs := b.ranges
	start, end := off, off+n
	// lo: first range whose end reaches start (adjacency merges, hence >=).
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Off+rs[i].Len >= start })
	hi := lo
	var had uint64
	for hi < len(rs) && rs[hi].Off <= end {
		start = min(start, rs[hi].Off)
		end = max(end, rs[hi].Off+rs[hi].Len)
		had += rs[hi].Len
		hi++
	}
	if had == end-start {
		return 0 // one declared range covers it all
	}
	merged := Range{Off: start, Len: end - start, Old: a.Alloc(end - start)}
	copy(merged.Old, from[start:end])
	for _, r := range rs[lo:hi] {
		copy(merged.Old[r.Off-start:], r.Old)
	}
	if hi == lo {
		rs = append(rs, Range{})
		copy(rs[lo+1:], rs[lo:])
		rs[lo] = merged
		b.ranges = rs
		return n
	}
	rs[lo] = merged
	b.ranges = append(rs[:lo+1], rs[hi:]...)
	return merged.Len - had
}

// MarkAllModified marks the entire image modified (allocations), with no
// first image.
func (b *Buf) MarkAllModified() {
	b.ranges = b.ranges[:0]
	b.ranges = append(b.ranges, Range{Off: 0, Len: b.size})
}

// Ranges returns the modified ranges, sorted and coalesced. The slice is
// owned by the buffer; commit spends each range's first image as the
// parity patch.
func (b *Buf) Ranges() []Range { return b.ranges }

// Modified reports whether any byte of the image was marked modified.
func (b *Buf) Modified() bool { return len(b.ranges) > 0 }

// Table is a transaction's micro-buffer collection: the paper's
// thread-local hashmap (§3.4), keyed by the object's pool offset, with the
// buffers also linked in open order. It also carries the transaction's
// first-image Arena, and, between transactions, the buffers it recycles
// (see Cache).
type Table struct {
	bufs  map[uint64]*Buf
	order []*Buf // open order; removed buffers leave nil holes until All compacts
	holes int
	bytes uint64
	arena Arena
	work  []*Buf // Modified's result, reused

	cache *Cache             // where Release returns the table; nil for NewTable's
	free  [numClasses][]*Buf // recycled buffers by size class
}

// NewTable creates an empty table that belongs to no Cache: Release
// recycles its buffers into it, for it alone.
func NewTable() *Table {
	return &Table{bufs: make(map[uint64]*Buf)}
}

// Arena returns the table's first-image arena.
func (t *Table) Arena() *Arena { return &t.arena }

// Lookup returns the buffer for oid, if open in this transaction.
func (t *Table) Lookup(oid layout.OID) (*Buf, bool) {
	b, ok := t.bufs[oid.Off]
	return b, ok
}

// Insert adds a buffer.
func (t *Table) Insert(b *Buf) {
	t.bufs[b.OID.Off] = b
	b.pos = len(t.order)
	t.order = append(t.order, b)
	t.bytes += b.Footprint()
}

// Remove drops the buffer for oid (used when a transaction frees an object
// it had open). It is O(1): the buffer's slot in the open-order list is
// blanked and squeezed out by the next All.
func (t *Table) Remove(oid layout.OID) {
	b, ok := t.bufs[oid.Off]
	if !ok {
		return
	}
	delete(t.bufs, oid.Off)
	t.bytes -= b.Footprint()
	t.order[b.pos] = nil
	t.holes++
}

// All returns the buffers in open order. The slice is owned by the table.
func (t *Table) All() []*Buf {
	if t.holes > 0 {
		live := t.order[:0]
		for _, b := range t.order {
			if b != nil {
				b.pos = len(live)
				live = append(live, b)
			}
		}
		clear(t.order[len(live):])
		t.order, t.holes = live, 0
	}
	return t.order
}

// Modified returns the open buffers with declared ranges, in open order,
// in a slice the table owns and reuses.
func (t *Table) Modified() []*Buf {
	t.work = t.work[:0]
	for _, b := range t.All() {
		if b.Modified() {
			t.work = append(t.work, b)
		}
	}
	return t.work
}

// Len returns the number of open buffers.
func (t *Table) Len() int { return len(t.bufs) }

// Bytes returns the table's DRAM footprint.
func (t *Table) Bytes() uint64 { return t.bytes }
