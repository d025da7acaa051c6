package alloc

import (
	"errors"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// RangeFn observes one persistent CM byte-range update: the entry's pool
// offset with its old and new images. Engines fold these into zone parity
// (the CM array is parity-covered, §3.1).
type RangeFn func(off uint64, old, new_ []byte)

// ApplyToDevice performs op's persistent CM mutation directly against the
// device, without allocator volatile state — the form recovery replay uses.
// Ops are idempotent: replaying a partially applied op converges to the
// same state. The modified entries are persisted; onRange (optional)
// receives each entry image change for parity maintenance.
func ApplyToDevice(dev *nvm.Device, geo layout.Geometry, op Op, onRange RangeFn) error {
	switch op.Kind {
	case OpAllocSlot, OpFreeSlot:
		return applySlot(dev, geo, op, onRange)
	case OpAllocChunks, OpFreeChunks:
		return applyChunks(dev, geo, op, onRange)
	default:
		return fmt.Errorf("alloc: apply of unknown op kind %d", op.Kind)
	}
}

func readEntry(dev *nvm.Device, geo layout.Geometry, z, c uint64) (Entry, []byte, error) {
	off := geo.CMEntryOff(z, c)
	img := make([]byte, layout.CMEntrySize)
	if err := dev.ReadAt(img, off); err != nil {
		return Entry{}, nil, err
	}
	e, err := DecodeEntry(img)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Zone, ce.Chunk, ce.Off = z, c, off
		}
		return Entry{}, nil, err
	}
	return e, img, nil
}

func writeEntry(dev *nvm.Device, geo layout.Geometry, z, c uint64, e Entry, oldImg []byte, onRange RangeFn) {
	off := geo.CMEntryOff(z, c)
	img := EncodeEntry(e)
	dev.WriteAt(off, img)
	dev.Persist(off, uint64(len(img)))
	if onRange != nil {
		onRange(off, oldImg, img)
	}
}

func applySlot(dev *nvm.Device, geo layout.Geometry, op Op, onRange RangeFn) error {
	e, oldImg, err := readEntry(dev, geo, op.Zone, op.Chunk)
	if err != nil {
		return err
	}
	slots := uint32(geo.ChunkSize / uint64(op.SlotSize))
	if op.SlotSize == 0 || op.Slot >= slots {
		return fmt.Errorf("alloc: bad slot op %+v", op)
	}
	switch op.Kind {
	case OpAllocSlot:
		if e.State == ChunkFree {
			// First committed allocation materializes the run.
			e = Entry{State: ChunkRun, Aux: op.SlotSize, Free: slots}
		}
		if e.State != ChunkRun || e.Aux != op.SlotSize {
			return fmt.Errorf("alloc: slot alloc into incompatible chunk (state %d aux %d, op %+v)", e.State, e.Aux, op)
		}
		if !e.Bit(op.Slot) { // idempotent under replay
			e.SetBit(op.Slot)
			e.Free--
		}
	case OpFreeSlot:
		if e.State == ChunkFree {
			return nil // replay after the run already collapsed
		}
		if e.State != ChunkRun || e.Aux != op.SlotSize {
			return fmt.Errorf("alloc: slot free from incompatible chunk (state %d aux %d, op %+v)", e.State, e.Aux, op)
		}
		if e.Bit(op.Slot) {
			e.ClearBit(op.Slot)
			e.Free++
		}
		if e.Free == slots {
			e = Entry{State: ChunkFree} // empty run collapses
		}
	}
	writeEntry(dev, geo, op.Zone, op.Chunk, e, oldImg, onRange)
	return nil
}

func applyChunks(dev *nvm.Device, geo layout.Geometry, op Op, onRange RangeFn) error {
	if op.NChunks == 0 || op.Chunk+op.NChunks > geo.ChunksPerZone() {
		return fmt.Errorf("alloc: bad extent op %+v", op)
	}
	for i := uint64(0); i < op.NChunks; i++ {
		c := op.Chunk + i
		e, oldImg, err := readEntry(dev, geo, op.Zone, c)
		if err != nil {
			return err
		}
		var want Entry
		switch {
		case op.Kind == OpAllocChunks && i == 0:
			want = Entry{State: ChunkUsedFirst, Aux: uint32(op.NChunks)}
		case op.Kind == OpAllocChunks:
			want = Entry{State: ChunkUsedCont}
		default:
			want = Entry{State: ChunkFree}
		}
		if e == want {
			continue // idempotent under replay
		}
		okBefore := e.State == ChunkFree ||
			(op.Kind == OpFreeChunks && (e.State == ChunkUsedFirst || e.State == ChunkUsedCont))
		if !okBefore {
			return fmt.Errorf("alloc: extent op %+v over chunk %d in state %d", op, c, e.State)
		}
		writeEntry(dev, geo, op.Zone, c, want, oldImg, onRange)
	}
	return nil
}

// Apply performs op persistently (as ApplyToDevice) and keeps the
// allocator's volatile state coherent. It serializes CM updates per zone;
// onRange runs under that zone's lock so parity deltas observe a
// consistent entry history.
func (a *Allocator) Apply(op Op, onRange RangeFn) error {
	zs := a.zones[op.Zone]
	zs.mu.Lock()
	defer zs.mu.Unlock()
	if err := ApplyToDevice(a.dev, a.geo, op, onRange); err != nil {
		return err
	}
	// Refresh the volatile cache from what is now on media.
	refresh := func(c uint64) error {
		e, _, err := readEntry(a.dev, a.geo, op.Zone, c)
		if err != nil {
			return err
		}
		zs.chunks[c].entry = e
		zs.publish(c)
		return nil
	}
	switch op.Kind {
	case OpAllocSlot:
		cv := &zs.chunks[op.Chunk]
		delete(cv.reserved, op.Slot)
		cv.pendingRun = 0 // run is persistent now
		if err := refresh(op.Chunk); err != nil {
			return err
		}
		if cv.avail(a.geo.ChunkSize) > 0 {
			addClassRun(zs, op.SlotSize, op.Chunk)
		} else {
			delete(zs.classRuns[op.SlotSize], op.Chunk)
		}
	case OpFreeSlot:
		cv := &zs.chunks[op.Chunk]
		if err := refresh(op.Chunk); err != nil {
			return err
		}
		switch {
		case cv.entry.State == ChunkFree && len(cv.reserved) > 0:
			// The run's last live slot went while other transactions
			// still hold reservations into it. On media the chunk is
			// free; here it keeps its class as a pending run until those
			// reservations commit (re-creating the run) or are released,
			// or findFreeChunk would hand the chunk out a second time.
			cv.pendingRun = op.SlotSize
			zs.publish(op.Chunk)
			addClassRun(zs, op.SlotSize, op.Chunk)
		case cv.entry.State == ChunkFree:
			delete(zs.classRuns[op.SlotSize], op.Chunk)
			if op.Chunk < zs.freeHint {
				zs.freeHint = op.Chunk
			}
		case cv.avail(a.geo.ChunkSize) > 0:
			addClassRun(zs, op.SlotSize, op.Chunk)
		}
	case OpAllocChunks, OpFreeChunks:
		for i := uint64(0); i < op.NChunks; i++ {
			c := op.Chunk + i
			zs.chunks[c].pendingSpan = false
			if err := refresh(c); err != nil {
				return err
			}
		}
		if op.Kind == OpFreeChunks && op.Chunk < zs.freeHint {
			zs.freeHint = op.Chunk
		}
	}
	return nil
}

// ObjectInfo describes one live object found by Objects.
type ObjectInfo struct {
	Base     uint64 // pool offset of the object header
	Capacity uint64 // reserved bytes (slot or extent size)
	Zone     uint64
}

// Objects calls fn for every committed live object, in address order,
// stopping early if fn returns false. Reservations not yet committed are
// not reported. The caller must ensure no concurrent commits (the engine
// runs this under its freeze/scrub quiescence).
func (a *Allocator) Objects(fn func(ObjectInfo) bool) {
	a.ObjectsFrom(0, fn)
}

// ObjectsFrom is Objects restricted to objects with Base > after: the
// resumable form an incremental scrub cursor needs. Zones and chunks
// wholly below the cursor are skipped by address arithmetic — never by
// visiting their slots — so resuming deep into a large heap costs
// O(chunks skipped), not O(objects skipped), and each scrub step's
// freeze window stays proportional to its own cap.
func (a *Allocator) ObjectsFrom(after uint64, fn func(ObjectInfo) bool) {
	for z := uint64(0); z < a.geo.NumZones; z++ {
		// Skip zones wholly below the cursor (conservative: computed
		// from the geometry's full chunk span, no per-zone state read).
		if n := a.geo.ChunksPerZone(); n > 0 {
			if a.geo.ChunkBase(z, n-1)+a.geo.ChunkSize <= after {
				continue
			}
		}
		zs := a.zones[z]
		zs.mu.Lock()
		for c := uint64(0); c < uint64(len(zs.chunks)); c++ {
			base := a.geo.ChunkBase(z, c)
			e := zs.chunks[c].entry
			switch e.State {
			case ChunkRun:
				if base+a.geo.ChunkSize <= after {
					continue // every slot base in this chunk is <= after
				}
				slots := e.Slots(a.geo.ChunkSize)
				for s := uint32(0); s < slots; s++ {
					if !e.Bit(s) {
						continue
					}
					info := ObjectInfo{
						Base:     base + uint64(s)*uint64(e.Aux),
						Capacity: uint64(e.Aux),
						Zone:     z,
					}
					if info.Base <= after {
						continue
					}
					if !fn(info) {
						zs.mu.Unlock()
						return
					}
				}
			case ChunkUsedFirst:
				if base <= after {
					continue
				}
				info := ObjectInfo{
					Base:     base,
					Capacity: uint64(e.Aux) * a.geo.ChunkSize,
					Zone:     z,
				}
				if !fn(info) {
					zs.mu.Unlock()
					return
				}
			}
		}
		zs.mu.Unlock()
	}
}

// CountLive returns the number of committed live objects, for tests and
// pool statistics.
func (a *Allocator) CountLive() int {
	n := 0
	a.Objects(func(ObjectInfo) bool { n++; return true })
	return n
}

// LiveBytes returns the committed reserved bytes.
func (a *Allocator) LiveBytes() uint64 {
	var n uint64
	a.Objects(func(o ObjectInfo) bool { n += o.Capacity; return true })
	return n
}

// Validate cross-checks volatile state against persistent CM entries; it
// is a test helper that fails fast on cache incoherence.
func (a *Allocator) Validate() error {
	buf := make([]byte, layout.CMEntrySize)
	for z := uint64(0); z < a.geo.NumZones; z++ {
		zs := a.zones[z]
		zs.mu.Lock()
		for c := range zs.chunks {
			if err := a.dev.ReadAt(buf, a.geo.CMEntryOff(z, uint64(c))); err != nil {
				zs.mu.Unlock()
				return err
			}
			e, err := DecodeEntry(buf)
			if err != nil {
				zs.mu.Unlock()
				return fmt.Errorf("zone %d chunk %d: %w", z, c, err)
			}
			if e != zs.chunks[c].entry {
				zs.mu.Unlock()
				return fmt.Errorf("zone %d chunk %d: volatile cache diverged from media", z, c)
			}
		}
		zs.mu.Unlock()
	}
	return nil
}
