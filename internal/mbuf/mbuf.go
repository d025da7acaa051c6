// Package mbuf implements micro-buffers (§3.2): DRAM shadow copies of
// NVMM objects that isolate transient writes from persistent data.
//
// A micro-buffer holds the full object image (header + user data) between
// two 64-bit canary words. Applications mutate only the shadow; commit
// checks the canaries before anything reaches NVMM, so buffer overruns are
// caught instead of propagated (the paper's canary mechanism). Modified
// ranges are tracked so commit can log, checksum, and parity-update only
// the bytes that changed.
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
}

// Buf is one micro-buffer.
type Buf struct {
	OID   layout.OID
	Flags Flags

	// OrigCsum is the object's stored checksum at open time, the base
	// for incremental refresh at commit.
	OrigCsum uint32

	canary  uint64
	backing []uint64 // head canary ⋯ image ⋯ tail canary, 8-aligned
	size    uint64   // image bytes (header + data)
	ranges  []Range  // modified ranges, sorted, coalesced
	pos     int      // index in the owning Table's open-order list
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
func New(oid layout.OID, size uint64, canary uint64) *Buf {
	words := 1 + (size+7)/8 + 1
	b := &Buf{OID: oid, canary: canary, backing: make([]uint64, words), size: size}
	b.backing[0] = canary
	b.backing[words-1] = canary
	return b
}

// Size returns the image size (header + user data).
func (b *Buf) Size() uint64 { return b.size }

// Footprint returns the DRAM bytes this buffer occupies (for the §4.2
// accounting).
func (b *Buf) Footprint() uint64 { return uint64(len(b.backing)) * 8 }

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

// MarkModified records that image bytes [off, off+n) changed and returns
// how many of them were not marked before. Overlapping and adjacent ranges
// coalesce. The range is merged into the sorted list in place —
// binary-search the merge window, fold every overlapping or adjacent
// range into one, shift the tail once — so a buffer collecting k ranges
// costs O(k log k) plus the shifts, not a re-sort per call.
func (b *Buf) MarkModified(off, n uint64) (added uint64) {
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
	merged := Range{Off: start, Len: end - start}
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

// MarkAllModified marks the entire image modified (allocations).
func (b *Buf) MarkAllModified() {
	b.ranges = b.ranges[:0]
	b.ranges = append(b.ranges, Range{Off: 0, Len: b.size})
}

// Ranges returns the modified ranges, sorted and coalesced. The slice is
// owned by the buffer.
func (b *Buf) Ranges() []Range { return b.ranges }

// Modified reports whether any byte of the image was marked modified.
func (b *Buf) Modified() bool { return len(b.ranges) > 0 }

// ResetRanges clears modification tracking (after a commit recycles the
// buffer).
func (b *Buf) ResetRanges() { b.ranges = b.ranges[:0] }

// Table is a transaction's micro-buffer collection: the paper's
// thread-local hashmap (§3.4), keyed by the object's pool offset, with the
// buffers also linked in open order.
type Table struct {
	bufs  map[uint64]*Buf
	order []*Buf // open order; removed buffers leave nil holes until All compacts
	holes int
	bytes uint64
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{bufs: make(map[uint64]*Buf)}
}

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

// Len returns the number of open buffers.
func (t *Table) Len() int { return len(t.bufs) }

// Bytes returns the table's DRAM footprint.
func (t *Table) Bytes() uint64 { return t.bytes }
