// Package alloc implements Pangolin's persistent NVMM allocator: the
// libpmemobj-style zone/chunk heap of §2.3 with the chunk metadata placed
// inside parity-covered zone storage and protected by checksums (§3.1).
//
// Zones are divided into chunks. A chunk is either free, subdivided into
// equal-size slots for small objects (a "run", tracked by a slot bitmap),
// or part of a contiguous multi-chunk extent for large objects. The
// persistent truth is the per-zone chunk-metadata (CM) array; free lists
// are volatile and rebuilt on open, so a crash can never corrupt them.
//
// Mutations are staged as idempotent Ops. A transaction reserves space
// volatilely at alloc time (so concurrent transactions never hand out the
// same slot) and records the Op in its redo log; at commit — or during
// recovery replay — Apply performs the persistent CM update and reports
// the modified byte ranges so the caller can fold them into zone parity.
package alloc

import (
	"encoding/binary"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
)

// Chunk states stored in CM entries.
const (
	ChunkFree      uint32 = iota // allocatable
	ChunkRun                     // subdivided into slots (Aux = slot size)
	ChunkUsedFirst               // first chunk of an extent (Aux = chunk count)
	ChunkUsedCont                // continuation of an extent
	ChunkReserved                // holds the CM array itself
)

// BitmapBytes is the per-entry slot bitmap capacity; it bounds slots per
// chunk to 8×BitmapBytes.
const BitmapBytes = layout.CMEntrySize - 16

// Entry is the decoded form of one chunk-metadata entry.
type Entry struct {
	State  uint32
	Aux    uint32 // slot size (run) or chunk count (used-first)
	Free   uint32 // free slots (run only)
	Bitmap [BitmapBytes]byte
}

// Slots returns the number of slots for a run chunk of the given chunk
// size.
func (e Entry) Slots(chunkSize uint64) uint32 {
	if e.State != ChunkRun || e.Aux == 0 {
		return 0
	}
	return uint32(chunkSize / uint64(e.Aux))
}

// Bit reports slot i's allocation bit.
func (e *Entry) Bit(i uint32) bool { return e.Bitmap[i/8]&(1<<(i%8)) != 0 }

// SetBit sets slot i's allocation bit.
func (e *Entry) SetBit(i uint32) { e.Bitmap[i/8] |= 1 << (i % 8) }

// ClearBit clears slot i's allocation bit.
func (e *Entry) ClearBit(i uint32) { e.Bitmap[i/8] &^= 1 << (i % 8) }

// EncodeEntry serializes e with its checksum into a CMEntrySize image.
func EncodeEntry(e Entry) []byte {
	b := make([]byte, layout.CMEntrySize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], e.State)
	le.PutUint32(b[4:], e.Aux)
	le.PutUint32(b[8:], e.Free)
	copy(b[16:], e.Bitmap[:])
	le.PutUint32(b[12:], entryChecksum(b))
	return b
}

// entryChecksum computes the checksum of an encoded entry image with its
// checksum field zeroed.
func entryChecksum(b []byte) uint32 {
	var img [layout.CMEntrySize]byte
	copy(img[:], b[:layout.CMEntrySize])
	img[12], img[13], img[14], img[15] = 0, 0, 0, 0
	return csum.Adler32(img[:])
}

// DecodeEntry parses an entry image, failing on checksum mismatch — the
// signal that the CM itself was corrupted and needs parity recovery.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) < layout.CMEntrySize {
		return Entry{}, fmt.Errorf("alloc: CM entry truncated")
	}
	le := binary.LittleEndian
	if le.Uint32(b[12:]) != entryChecksum(b) {
		return Entry{}, &CorruptError{}
	}
	var e Entry
	e.State = le.Uint32(b[0:])
	e.Aux = le.Uint32(b[4:])
	e.Free = le.Uint32(b[8:])
	copy(e.Bitmap[:], b[16:])
	return e, nil
}

// CorruptError reports a chunk-metadata entry whose checksum failed.
// Zone/Chunk/Off identify the entry so the caller can run parity recovery
// over its page and retry.
type CorruptError struct {
	Zone  uint64
	Chunk uint64
	Off   uint64 // pool offset of the corrupt entry
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("alloc: chunk metadata corrupt (zone %d chunk %d at %#x)", e.Zone, e.Chunk, e.Off)
}

// OpKind enumerates allocator mutations. Ops are recorded in redo logs and
// must be idempotent under replay.
type OpKind uint16

const (
	OpAllocSlot OpKind = iota + 1
	OpFreeSlot
	OpAllocChunks
	OpFreeChunks
)

// Op is one staged allocator mutation.
type Op struct {
	Kind     OpKind
	Zone     uint64
	Chunk    uint64 // chunk index (first chunk for extent ops)
	Slot     uint32 // slot index (slot ops)
	SlotSize uint32 // slot size in bytes (slot ops; drives run creation)
	NChunks  uint64 // extent length (extent ops)
}

// Entries returns how many consecutive CM entries, from op.Chunk's, op
// updates.
func (op Op) Entries() uint64 {
	if op.Kind == OpAllocChunks || op.Kind == OpFreeChunks {
		return op.NChunks
	}
	return 1
}

// OpEncodedSize is the fixed wire size of an encoded Op.
const OpEncodedSize = 2 + 6 + 8 + 8 + 4 + 4 + 8

// EncodeOp serializes op.
func EncodeOp(op Op) []byte {
	b := make([]byte, OpEncodedSize)
	le := binary.LittleEndian
	le.PutUint16(b[0:], uint16(op.Kind))
	le.PutUint64(b[8:], op.Zone)
	le.PutUint64(b[16:], op.Chunk)
	le.PutUint32(b[24:], op.Slot)
	le.PutUint32(b[28:], op.SlotSize)
	le.PutUint64(b[32:], op.NChunks)
	return b
}

// DecodeOp parses an encoded Op.
func DecodeOp(b []byte) (Op, error) {
	if len(b) < OpEncodedSize {
		return Op{}, fmt.Errorf("alloc: op truncated")
	}
	le := binary.LittleEndian
	op := Op{
		Kind:     OpKind(le.Uint16(b[0:])),
		Zone:     le.Uint64(b[8:]),
		Chunk:    le.Uint64(b[16:]),
		Slot:     le.Uint32(b[24:]),
		SlotSize: le.Uint32(b[28:]),
		NChunks:  le.Uint64(b[32:]),
	}
	if op.Kind < OpAllocSlot || op.Kind > OpFreeChunks {
		return Op{}, fmt.Errorf("alloc: unknown op kind %d", op.Kind)
	}
	return op, nil
}
