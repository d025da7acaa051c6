package alloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// ErrOutOfSpace reports that no zone can satisfy an allocation.
var ErrOutOfSpace = errors.New("alloc: out of space")

// sizeClasses returns the run slot sizes for a chunk size: multiples of 64
// up to 512 B, then geometric steps, capped at half a chunk. Larger
// requests use whole-chunk extents.
func sizeClasses(chunkSize uint64) []uint64 {
	var classes []uint64
	for s := uint64(64); s <= 512; s += 64 {
		classes = append(classes, s)
	}
	for _, s := range []uint64{640, 768, 896, 1024, 1280, 1536, 1792, 2048,
		2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192, 10240, 12288, 16384,
		20480, 24576, 32768} {
		if s <= chunkSize/2 {
			classes = append(classes, s)
		}
	}
	return classes
}

// chunkVol is the volatile view of one chunk: the persistent entry plus
// uncommitted reservations.
type chunkVol struct {
	entry       Entry
	reserved    map[uint32]struct{} // slot reservations by in-flight txs
	pendingRun  uint32              // slot size of a volatile (not yet persistent) run; 0 if none
	pendingSpan bool                // chunk reserved by an in-flight extent allocation
}

// avail returns reservable slots, counting volatile state.
func (c *chunkVol) avail(chunkSize uint64) uint32 {
	switch {
	case c.pendingRun != 0:
		return uint32(chunkSize/uint64(c.pendingRun)) - uint32(len(c.reserved))
	case c.entry.State == ChunkRun:
		return c.entry.Free - uint32(len(c.reserved))
	default:
		return 0
	}
}

func (c *chunkVol) slotSize() uint32 {
	if c.pendingRun != 0 {
		return c.pendingRun
	}
	if c.entry.State == ChunkRun {
		return c.entry.Aux
	}
	return 0
}

// free reports whether the chunk can be carved into a new run or extent:
// free on media and not claimed by an in-flight transaction. A chunk whose
// run collapsed on media while reservations into it are outstanding keeps
// its class as a pending run (see Apply), so it is not free.
func (c *chunkVol) free() bool {
	return c.entry.State == ChunkFree && !c.pendingSpan && c.pendingRun == 0
}

// chunkWord is everything SlotSizeOf needs to know about a chunk, packed
// into one word so the concurrent read path can load it atomically instead
// of taking the zone lock the committing transaction holds: state in bits
// 0-7, pendingSpan in bit 8, pendingRun in bits 16-31 (slot sizes stop at
// 32 KB), Aux in bits 32-63.
type chunkWord uint64

const chunkWordSpan chunkWord = 1 << 8

func (c *chunkVol) word() chunkWord {
	w := chunkWord(c.entry.State&0xff) | chunkWord(c.pendingRun)<<16 | chunkWord(c.entry.Aux)<<32
	if c.pendingSpan {
		w |= chunkWordSpan
	}
	return w
}

func (w chunkWord) state() uint32      { return uint32(w & 0xff) }
func (w chunkWord) pendingSpan() bool  { return w&chunkWordSpan != 0 }
func (w chunkWord) pendingRun() uint32 { return uint32(w>>16) & 0xffff }
func (w chunkWord) aux() uint32        { return uint32(w >> 32) }

type zoneState struct {
	mu     sync.Mutex
	chunks []chunkVol
	// words[c] is chunks[c].word(), republished (under mu) after every
	// change to the chunk's entry or pending state and read without it.
	words []atomic.Uint64
	// classRuns indexes chunks usable per slot size (persistent runs and
	// pending runs with availability); entries may be stale and are
	// validated on use.
	classRuns map[uint32]map[uint64]struct{}
	freeHint  uint64 // first index that might be free
}

// publish makes chunk c's current state visible to SlotSizeOf. Caller
// holds zs.mu.
func (zs *zoneState) publish(c uint64) {
	zs.words[c].Store(uint64(zs.chunks[c].word()))
}

// Allocator manages the persistent heap of a pool.
type Allocator struct {
	dev      *nvm.Device
	geo      layout.Geometry
	lay      layout.Resolved
	cmChunks uint64 // chunks at the start of each zone holding its CM array
	classes  []uint64
	zones    []*zoneState
	next     uint64 // round-robin zone cursor (mutated under zone locks only loosely)
	nextMu   sync.Mutex
}

// Reservation describes space reserved for an allocation. The reservation
// is volatile until its Op is applied at commit; Release abandons it.
type Reservation struct {
	Op      Op
	Base    uint64 // pool offset of the object header
	Total   uint64 // reserved bytes (slot size or extent size)
	UserOff uint64 // pool offset of user data (Base + ObjHeaderSize)
}

// MaxAlloc returns the largest supported user allocation (one zone's
// allocatable span minus the object header).
func (a *Allocator) MaxAlloc() uint64 {
	return (a.geo.ChunksPerZone()-a.geo.CMChunks())*a.geo.ChunkSize - layout.ObjHeaderSize
}

// Format initializes the allocator's persistent state on a fresh (zeroed)
// device: zone headers (replicated) and CM arrays, with the CM chunks
// themselves marked reserved. The caller recomputes parity for the CM
// columns afterwards.
func Format(dev *nvm.Device, geo layout.Geometry) error {
	if err := checkGeometry(geo); err != nil {
		return err
	}
	for z := uint64(0); z < geo.NumZones; z++ {
		zh := layout.EncodeZoneHeader(layout.ZoneHeader{ZoneIdx: z, Seq: 1, Chunks: geo.ChunksPerZone()})
		dev.WriteAt(geo.ZoneHeaderOff(z), zh)
		dev.WriteAt(geo.ZoneHeaderReplicaOff(z), zh)
		dev.Persist(geo.ZoneHeaderOff(z), uint64(len(zh)))
		dev.Persist(geo.ZoneHeaderReplicaOff(z), uint64(len(zh)))
		cmChunks := geo.CMChunks()
		for c := uint64(0); c < geo.ChunksPerZone(); c++ {
			e := Entry{State: ChunkFree}
			if c < cmChunks {
				e.State = ChunkReserved
			}
			img := EncodeEntry(e)
			dev.WriteAt(geo.CMEntryOff(z, c), img)
		}
		dev.Persist(geo.CMEntryOff(z, 0), geo.ChunksPerZone()*layout.CMEntrySize)
	}
	return nil
}

func checkGeometry(geo layout.Geometry) error {
	if err := geo.Validate(); err != nil {
		return err
	}
	if geo.ChunkSize/64 > BitmapBytes*8 {
		return fmt.Errorf("alloc: chunk size %d needs %d slot bits, bitmap holds %d",
			geo.ChunkSize, geo.ChunkSize/64, BitmapBytes*8)
	}
	return nil
}

// Open builds an allocator over a formatted device, reading every CM entry
// and rebuilding volatile free state. A CM checksum failure returns a
// *CorruptError identifying the entry so the engine can repair it from
// parity and retry.
func Open(dev *nvm.Device, geo layout.Geometry) (*Allocator, error) {
	if err := checkGeometry(geo); err != nil {
		return nil, err
	}
	a := &Allocator{dev: dev, geo: geo, lay: geo.Resolve(), cmChunks: geo.CMChunks(), classes: sizeClasses(geo.ChunkSize)}
	a.zones = make([]*zoneState, geo.NumZones)
	buf := make([]byte, layout.CMEntrySize)
	for z := uint64(0); z < geo.NumZones; z++ {
		zs := &zoneState{
			chunks:    make([]chunkVol, geo.ChunksPerZone()),
			words:     make([]atomic.Uint64, geo.ChunksPerZone()),
			classRuns: make(map[uint32]map[uint64]struct{}),
		}
		for c := uint64(0); c < geo.ChunksPerZone(); c++ {
			off := geo.CMEntryOff(z, c)
			if err := dev.ReadAt(buf, off); err != nil {
				return nil, fmt.Errorf("alloc: reading CM (zone %d chunk %d): %w", z, c, err)
			}
			e, err := DecodeEntry(buf)
			if err != nil {
				var ce *CorruptError
				if errors.As(err, &ce) {
					ce.Zone, ce.Chunk, ce.Off = z, c, off
				}
				return nil, err
			}
			zs.chunks[c] = chunkVol{entry: e}
			zs.publish(c)
			if e.State == ChunkRun && e.Free > 0 {
				addClassRun(zs, e.Aux, c)
			}
		}
		a.zones[z] = zs
	}
	return a, nil
}

func addClassRun(zs *zoneState, slotSize uint32, chunk uint64) {
	m := zs.classRuns[slotSize]
	if m == nil {
		m = make(map[uint64]struct{})
		zs.classRuns[slotSize] = m
	}
	m[chunk] = struct{}{}
}

// classFor returns the smallest size class ≥ total, or 0 if total needs a
// chunk extent.
func (a *Allocator) classFor(total uint64) uint64 {
	for _, c := range a.classes {
		if total <= c {
			return c
		}
	}
	return 0
}

// Reserve finds space for an object of userSize bytes (header added
// internally), reserving it against concurrent transactions. The returned
// reservation's Op must be recorded in the transaction log and applied at
// commit, or released on abort.
func (a *Allocator) Reserve(userSize uint64) (Reservation, error) {
	total := userSize + layout.ObjHeaderSize
	if total > a.MaxAlloc()+layout.ObjHeaderSize {
		return Reservation{}, fmt.Errorf("alloc: %d bytes exceeds maximum object size: %w", userSize, ErrOutOfSpace)
	}
	a.nextMu.Lock()
	start := a.next
	a.next++
	a.nextMu.Unlock()
	if class := a.classFor(total); class != 0 {
		for i := uint64(0); i < a.geo.NumZones; i++ {
			z := (start + i) % a.geo.NumZones
			if r, ok := a.reserveSlot(z, uint32(class)); ok {
				return r, nil
			}
		}
		return Reservation{}, ErrOutOfSpace
	}
	n := (total + a.geo.ChunkSize - 1) / a.geo.ChunkSize
	for i := uint64(0); i < a.geo.NumZones; i++ {
		z := (start + i) % a.geo.NumZones
		if r, ok := a.reserveChunks(z, n); ok {
			return r, nil
		}
	}
	return Reservation{}, ErrOutOfSpace
}

func (a *Allocator) reserveSlot(z uint64, slotSize uint32) (Reservation, bool) {
	zs := a.zones[z]
	zs.mu.Lock()
	defer zs.mu.Unlock()
	// Existing run (persistent or pending) with availability?
	var chunk uint64
	found := false
	for c := range zs.classRuns[slotSize] {
		cv := &zs.chunks[c]
		if cv.slotSize() == slotSize && cv.avail(a.geo.ChunkSize) > 0 {
			chunk, found = c, true
			break
		}
		delete(zs.classRuns[slotSize], c) // stale
	}
	if !found {
		// Carve a new (pending) run from a free chunk.
		c, ok := a.findFreeChunk(zs, 1)
		if !ok {
			return Reservation{}, false
		}
		zs.chunks[c].pendingRun = slotSize
		zs.publish(c)
		addClassRun(zs, slotSize, c)
		chunk = c
	}
	cv := &zs.chunks[chunk]
	if cv.reserved == nil {
		cv.reserved = make(map[uint32]struct{})
	}
	slots := uint32(a.geo.ChunkSize / uint64(slotSize))
	slot := uint32(0)
	for ; slot < slots; slot++ {
		if cv.pendingRun == 0 && cv.entry.Bit(slot) {
			continue
		}
		if _, taken := cv.reserved[slot]; taken {
			continue
		}
		break
	}
	if slot == slots {
		return Reservation{}, false
	}
	cv.reserved[slot] = struct{}{}
	if cv.avail(a.geo.ChunkSize) == 0 {
		delete(zs.classRuns[slotSize], chunk)
	}
	base := a.lay.ChunkBase(z, chunk) + uint64(slot)*uint64(slotSize)
	return Reservation{
		Op:      Op{Kind: OpAllocSlot, Zone: z, Chunk: chunk, Slot: slot, SlotSize: slotSize},
		Base:    base,
		Total:   uint64(slotSize),
		UserOff: base + layout.ObjHeaderSize,
	}, true
}

// findFreeChunk locates n contiguous free, unclaimed chunks (chunkVol.free),
// returning the first index. Caller holds zs.mu.
func (a *Allocator) findFreeChunk(zs *zoneState, n uint64) (uint64, bool) {
	total := uint64(len(zs.chunks))
	run := uint64(0)
	for c := zs.freeHint; c < total; c++ {
		if zs.chunks[c].free() {
			run++
			if run == n {
				first := c - n + 1
				if n == 1 && first == zs.freeHint {
					zs.freeHint++
				}
				return first, true
			}
		} else {
			run = 0
		}
	}
	// Retry from the beginning (hint may have skipped freed chunks).
	run = 0
	for c := uint64(0); c < zs.freeHint && c < total; c++ {
		if zs.chunks[c].free() {
			run++
			if run == n {
				return c - n + 1, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

func (a *Allocator) reserveChunks(z, n uint64) (Reservation, bool) {
	zs := a.zones[z]
	zs.mu.Lock()
	defer zs.mu.Unlock()
	first, ok := a.findFreeChunk(zs, n)
	if !ok {
		return Reservation{}, false
	}
	for c := first; c < first+n; c++ {
		zs.chunks[c].pendingSpan = true
		zs.publish(c)
	}
	base := a.lay.ChunkBase(z, first)
	return Reservation{
		Op:      Op{Kind: OpAllocChunks, Zone: z, Chunk: first, NChunks: n},
		Base:    base,
		Total:   n * a.geo.ChunkSize,
		UserOff: base + layout.ObjHeaderSize,
	}, true
}

// Release abandons a reservation (transaction abort). It must not be
// called after the reservation's Op was applied.
func (a *Allocator) Release(r Reservation) {
	zs := a.zones[r.Op.Zone]
	zs.mu.Lock()
	defer zs.mu.Unlock()
	switch r.Op.Kind {
	case OpAllocSlot:
		cv := &zs.chunks[r.Op.Chunk]
		delete(cv.reserved, r.Op.Slot)
		if cv.pendingRun != 0 && len(cv.reserved) == 0 {
			// Nobody committed into the pending run: back to free.
			cv.pendingRun = 0
			zs.publish(r.Op.Chunk)
			delete(zs.classRuns[r.Op.SlotSize], r.Op.Chunk)
			if r.Op.Chunk < zs.freeHint {
				zs.freeHint = r.Op.Chunk
			}
		} else if cv.slotSize() == r.Op.SlotSize {
			addClassRun(zs, r.Op.SlotSize, r.Op.Chunk)
		}
	case OpAllocChunks:
		for c := r.Op.Chunk; c < r.Op.Chunk+r.Op.NChunks; c++ {
			zs.chunks[c].pendingSpan = false
			zs.publish(c)
		}
		if r.Op.Chunk < zs.freeHint {
			zs.freeHint = r.Op.Chunk
		}
	default:
		panic(fmt.Sprintf("alloc: Release of non-allocation op %d", r.Op.Kind))
	}
}

// StageFree builds the Op that frees the object whose header is at base.
// It consults persistent CM state to classify the object; the Op is applied
// at commit (freeing is deferred so aborts keep the object intact).
func (a *Allocator) StageFree(base uint64) (Op, error) {
	loc, err := a.locateChunk(base)
	if err != nil {
		return Op{}, err
	}
	z, c, rel := loc.Zone, loc.Chunk, loc.Rel
	zs := a.zones[z]
	zs.mu.Lock()
	defer zs.mu.Unlock()
	cv := &zs.chunks[c]
	switch cv.entry.State {
	case ChunkRun:
		ss := uint64(cv.entry.Aux)
		if rel%ss != 0 {
			return Op{}, fmt.Errorf("alloc: %#x is not a slot boundary", base)
		}
		slot := uint32(rel / ss)
		if !cv.entry.Bit(slot) {
			return Op{}, fmt.Errorf("alloc: double free of slot %d in zone %d chunk %d", slot, z, c)
		}
		return Op{Kind: OpFreeSlot, Zone: z, Chunk: c, Slot: slot, SlotSize: cv.entry.Aux}, nil
	case ChunkUsedFirst:
		if rel != 0 {
			return Op{}, fmt.Errorf("alloc: %#x is not an extent base", base)
		}
		return Op{Kind: OpFreeChunks, Zone: z, Chunk: c, NChunks: uint64(cv.entry.Aux)}, nil
	default:
		return Op{}, fmt.Errorf("alloc: free of unallocated address %#x (chunk state %d)", base, cv.entry.State)
	}
}

// SlotSizeOf returns the reserved capacity (slot or extent bytes) of the
// object whose header is at base.
func (a *Allocator) SlotSizeOf(base uint64) (uint64, error) {
	loc, err := a.locateChunk(base)
	if err != nil {
		return 0, err
	}
	return a.SlotSizeAt(base, loc)
}

// SlotSizeAt is SlotSizeOf for a caller that has already located base in
// zone data (loc must be base's location). It takes no lock: the chunk's
// state is one atomically loaded word, so concurrent readers never wait
// behind a committing transaction, and the answer is the chunk's state
// either before or after any mutation racing with the call.
func (a *Allocator) SlotSizeAt(base uint64, loc layout.ChunkLoc) (uint64, error) {
	if loc.Chunk < a.cmChunks {
		return 0, fmt.Errorf("alloc: %#x is inside the CM area", base)
	}
	w := chunkWord(a.zones[loc.Zone].words[loc.Chunk].Load())
	switch {
	case w.state() == ChunkRun:
		return uint64(w.aux()), nil
	case w.state() == ChunkUsedFirst && loc.Rel == 0:
		return uint64(w.aux()) * a.geo.ChunkSize, nil
	case w.pendingRun() != 0:
		return uint64(w.pendingRun()), nil
	case w.pendingSpan():
		// In-flight extent: length unknown here; callers track it via
		// the reservation instead.
		return 0, fmt.Errorf("alloc: extent at %#x not yet committed", base)
	default:
		return 0, fmt.Errorf("alloc: %#x is not an allocated object", base)
	}
}

// locateChunk maps an object header offset to its chunk location.
func (a *Allocator) locateChunk(base uint64) (layout.ChunkLoc, error) {
	loc, ok := a.lay.LocateChunk(base)
	if !ok {
		return loc, fmt.Errorf("alloc: %#x outside zone data", base)
	}
	if loc.Chunk < a.cmChunks {
		return loc, fmt.Errorf("alloc: %#x is inside the CM area", base)
	}
	return loc, nil
}
