package core

import (
	"encoding/binary"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
	"github.com/pangolin-go/pangolin/internal/xor"
)

// applyRange is one committed byte-range update: new bytes from the
// micro-buffer and the matching old NVMM bytes (for parity deltas and
// incremental checksums).
type applyRange struct {
	off   uint64
	new   []byte
	old   []byte
	fresh bool // range of an object this transaction allocated
}

// zeroRunMin is the block size at which a fresh object's zero bytes are
// logged as a recZero run instead of data, so allocating a large zeroed
// object (a hash table, a sparse node) costs log space in proportion to
// what the transaction wrote into it, not to its size. A run record is 32
// log bytes; below a few hundred bytes eliding saves little.
const zeroRunMin = 256

// Commit makes the transaction durable and applies it. For Pangolin modes
// this is the paper's protocol (§3.4): verify canaries, refresh checksums
// incrementally, persist + replicate the redo log, set the commit flag
// (durability point), write back objects with non-temporal stores, fold
// old⊕new deltas into zone parity, apply allocator metadata ops, then
// garbage-collect the log and micro-buffers. For pmemobj modes it
// persists the in-place writes, mirrors them to the replica (Pmemobj-R),
// flips the lane from undo to committed, and applies metadata ops.
func (tx *Tx) Commit() error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	tx.done = true
	e := tx.e
	var err error
	if e.mode.MicroBuffered() {
		err = tx.commitPangolin()
	} else {
		err = tx.commitPmemobj()
	}
	if err == nil {
		e.stats.Commits.Add(1)
		e.stats.TxCount.Add(1)
		e.stats.TxAllocBytes.Add(tx.statAllocBytes)
		e.stats.TxModBytes.Add(tx.statModBytes)
		e.stats.TxFreeBytes.Add(tx.statFreeBytes)
		e.stats.TxAllocObjs.Add(uint64(len(tx.allocs)))
		e.stats.TxObjects.Add(uint64(len(tx.statObjs)))
	}
	return err
}

func (tx *Tx) commitPangolin() error {
	e := tx.e
	defer func() {
		e.stats.mbufAdd(-int64(tx.bufs.Bytes()))
	}()

	// Canary check before anything can reach NVMM (§3.2). A clobbered
	// canary aborts the transaction rather than propagating corruption.
	for _, b := range tx.bufs.All() {
		if err := b.CheckCanaries(); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	work := tx.gatherWork()
	if len(work) == 0 && len(tx.allocs) == 0 && len(tx.frees) == 0 && tx.root == nil {
		tx.w.Clear()
		e.stats.EmptyTxs.Add(1)
		return nil
	}

	// Read the old NVMM bytes for every modified range: the inputs to
	// incremental checksums and parity deltas. This happens before the
	// commit point, so media faults here still recover online.
	ranges, err := tx.collectRanges(work)
	if err != nil {
		tx.abortReleasing()
		return err
	}

	// Enter the commit section: recovery freezes commits here.
	e.waitUnfrozen()
	e.commitGate.RLock()
	defer e.commitGate.RUnlock()

	// Log: data records, allocator ops, root update; then the commit
	// flag — the durability point.
	for _, r := range ranges {
		if err := tx.logRange(r); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	for _, res := range tx.allocs {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(res.Op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	for _, op := range tx.frees {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	if tx.root != nil {
		var p [24]byte
		binary.LittleEndian.PutUint64(p[0:], tx.root.oid.Pool)
		binary.LittleEndian.PutUint64(p[8:], tx.root.oid.Off)
		binary.LittleEndian.PutUint64(p[16:], tx.root.size)
		if err := tx.w.Append(recRoot, p[:]); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	tx.w.Commit()

	// Apply: object write-back with NT stores, one fence, then parity.
	for _, r := range ranges {
		e.dev.WriteNT(r.off, r.new)
	}
	e.dev.Fence()
	if e.mode.Parity() {
		for _, r := range ranges {
			// The old bytes have served the checksum refresh; turn
			// them into the parity patch in place.
			xor.Delta(r.old, r.old, r.new)
			e.updateParitySegments(r.off, r.old)
		}
		e.dev.Fence()
	}
	// Allocator metadata (CM entries are parity-covered).
	for _, res := range tx.allocs {
		if err := e.applyAllocOp(res.Op); err != nil {
			return fmt.Errorf("core: applying alloc op: %w (%w)", err, ErrNeedReopen)
		}
	}
	for _, op := range tx.frees {
		if err := e.applyAllocOp(op); err != nil {
			return fmt.Errorf("core: applying free op: %w (%w)", err, ErrNeedReopen)
		}
	}
	if tx.root != nil {
		e.applyRoot(tx.root.oid, tx.root.size)
	}
	// Clear the verified-read bit of every object whose bytes this commit
	// changed (freed slots count: a later allocation may reuse them).
	if e.verified != nil {
		for _, b := range work {
			e.noteModified(b.OID.Off)
		}
		for _, res := range tx.allocs {
			e.noteModified(res.UserOff)
		}
		for off := range tx.freed {
			e.noteModified(off)
		}
	}
	tx.releaseLate()
	tx.w.Clear()
	return nil
}

// gatherWork returns the micro-buffers with changes to persist.
func (tx *Tx) gatherWork() []*mbuf.Buf {
	var work []*mbuf.Buf
	for _, b := range tx.bufs.All() {
		if b.Flags&mbuf.FlagFreed != 0 {
			continue
		}
		if b.Modified() {
			work = append(work, b)
		}
	}
	return work
}

// collectRanges materializes every modified range with its old NVMM bytes
// and, in checksumming modes, refreshes each buffer's stored checksum
// incrementally from its own ranges (§3.5: cost proportional to the
// modified size, not the object size), adding the checksum field itself as
// a modified range. The whole pass is linear in the ranges: each buffer's
// ranges are emitted contiguously, so its checksum folds exactly that
// slice, and the range list and every old-byte copy come from two
// allocations sized up front.
func (tx *Tx) collectRanges(work []*mbuf.Buf) ([]applyRange, error) {
	e := tx.e
	csums := e.mode.Checksums()
	var nRanges int
	var nBytes uint64
	for _, b := range work {
		nRanges += len(b.Ranges())
		for _, r := range b.Ranges() {
			nBytes += r.Len
		}
		if csums && b.Flags&mbuf.FlagAllocated == 0 {
			nRanges++
			nBytes += 4
		}
	}
	out := make([]applyRange, 0, nRanges)
	arena := make([]byte, nBytes)
	// take carves the next n old bytes at off out of the arena. Freshly
	// allocated slots hold arbitrary prior bytes, read for the parity
	// delta all the same; a media fault is repaired like any other.
	take := func(off, n uint64) ([]byte, error) {
		old := arena[:n:n]
		arena = arena[n:]
		return old, e.readRepairing(old, off)
	}
	var err error
	for _, b := range work {
		base := b.OID.HeaderOff()
		img := b.Image()
		fresh := b.Flags&mbuf.FlagAllocated != 0
		for _, r := range b.Ranges() {
			ar := applyRange{off: base + r.Off, new: img[r.Off : r.Off+r.Len], fresh: fresh}
			if ar.old, err = take(ar.off, r.Len); err != nil {
				return nil, err
			}
			out = append(out, ar)
		}
	}
	if !csums {
		return out, nil
	}
	start := 0
	for _, b := range work {
		mine := out[start : start+len(b.Ranges())]
		start += len(mine)
		img := b.Image()
		hdr := b.Header()
		if b.Flags&mbuf.FlagAllocated != 0 {
			hdr.Csum = layout.ObjChecksum(img)
			b.SetHeader(hdr)
			continue
		}
		base := b.OID.HeaderOff()
		sum := b.OrigCsum
		for _, ar := range mine {
			sum = csum.Update(sum, b.Size(), ar.off-base, ar.old, ar.new)
		}
		hdr.Csum = sum
		b.SetHeader(hdr)
		// The checksum field (image bytes [12,16)) becomes part of the
		// write-back set. It is excluded from the checksum domain, so no
		// recursive refresh is needed. The old bytes feed the parity
		// delta, so a failed read must go through online recovery like
		// any other — substituting zeros would fold a wrong delta into
		// the zone's parity column.
		ar := applyRange{off: base + 12, new: img[12:16]}
		if ar.old, err = take(ar.off, 4); err != nil {
			return nil, err
		}
		out = append(out, ar)
	}
	return out, nil
}

// readRepairing reads NVMM bytes at off into buf, running online recovery
// and retrying once on a fault.
func (e *Engine) readRepairing(buf []byte, off uint64) error {
	err := e.dev.ReadAt(buf, off)
	if err == nil {
		return nil
	}
	if rerr := e.faultRepair(off, uint64(len(buf)), err); rerr != nil {
		return rerr
	}
	return e.dev.ReadAt(buf, off)
}

// logRange appends the redo records for one range: data records of at most
// one log payload each, with a fresh object's long zero runs elided to
// recZero records.
func (tx *Tx) logRange(r applyRange) error {
	off, data := r.off, r.new
	if !r.fresh || len(data) < zeroRunMin {
		return tx.logData(off, data)
	}
	for len(data) > 0 {
		n := 0
		for n+zeroRunMin <= len(data) && allZero(data[n:n+zeroRunMin]) {
			n += zeroRunMin
		}
		if n > 0 {
			var p [16]byte
			binary.LittleEndian.PutUint64(p[0:], off)
			binary.LittleEndian.PutUint64(p[8:], uint64(n))
			if err := tx.w.Append(recZero, p[:]); err != nil {
				return err
			}
			tx.e.stats.LoggedBytes.Add(uint64(len(p)))
		} else {
			// Data up to the next zero block (a short tail is data).
			n = min(zeroRunMin, len(data))
			for n+zeroRunMin <= len(data) && !allZero(data[n:n+zeroRunMin]) {
				n += zeroRunMin
			}
			if len(data)-n < zeroRunMin {
				n = len(data)
			}
			if err := tx.logData(off, data[:n]); err != nil {
				return err
			}
		}
		off += uint64(n)
		data = data[n:]
	}
	return nil
}

// logData appends recData records (absolute offset + bytes) for data.
func (tx *Tx) logData(off uint64, data []byte) error {
	maxP := tx.e.lm.MaxPayload() - 8
	for len(data) > 0 {
		n := min(uint64(len(data)), maxP)
		var at [8]byte
		binary.LittleEndian.PutUint64(at[:], off)
		if err := tx.w.AppendVec(recData, at[:], data[:n]); err != nil {
			return err
		}
		tx.e.stats.LoggedBytes.Add(8 + n)
		off += n
		data = data[n:]
	}
	return nil
}

// allZero reports whether b (a multiple of 8 bytes) holds only zeros.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	return true
}

// updateParitySegments folds a delta at absolute offset off into zone
// parity. off must lie in zone data.
func (e *Engine) updateParitySegments(off uint64, delta []byte) {
	loc, ok := e.lay.Locate(off)
	if !ok {
		panic(fmt.Sprintf("core: parity update at %#x, outside zone data", off))
	}
	e.foldParity(loc, delta)
}

// foldParity folds a delta starting at loc into zone parity, splitting at
// row boundaries (objects may span rows, never zones).
func (e *Engine) foldParity(loc layout.Loc, delta []byte) {
	for len(delta) > 0 {
		if loc.Row >= e.geo.DataRows() {
			panic(fmt.Sprintf("core: parity update runs past zone %d's data rows", loc.Zone))
		}
		n := min(uint64(len(delta)), e.lay.RowSize()-loc.Col)
		e.par.Update(loc.Zone, loc.Col, delta[:n])
		delta = delta[n:]
		loc.Row, loc.Col = loc.Row+1, 0
	}
}

// applyAllocOp applies an allocator op, folding the CM entry change into
// parity (and mirroring it to the replica pool when one exists).
func (e *Engine) applyAllocOp(op alloc.Op) error {
	return e.heap.Apply(op, func(off uint64, old, new_ []byte) {
		if e.mode.Parity() {
			delta := make([]byte, len(new_))
			xor.Delta(delta, old, new_)
			e.updateParitySegments(off, delta)
			e.dev.Fence()
		}
		if e.replica != nil {
			e.replica.WriteAt(off, new_)
			e.replica.Persist(off, uint64(len(new_)))
		}
	})
}

// abortReleasing undoes a finished (tx.done) transaction: Abort, and
// commit failures before the durability point.
func (tx *Tx) abortReleasing() {
	e := tx.e
	for _, res := range tx.allocs { // cancelled ones moved to lateRelease
		e.heap.Release(res)
	}
	if tx.undoSpan != nil {
		tx.rollbackDirect()
	}
	tx.releaseLate()
	tx.w.Clear()
	e.stats.Aborts.Add(1)
}

func (tx *Tx) commitPmemobj() error {
	e := tx.e
	if len(tx.undoSpan) == 0 && len(tx.allocs) == 0 && len(tx.frees) == 0 && tx.root == nil {
		tx.w.Clear()
		e.stats.EmptyTxs.Add(1)
		return nil
	}
	e.waitUnfrozen()
	e.commitGate.RLock()
	defer e.commitGate.RUnlock()

	// Persist the in-place writes (undo protects them until the lane
	// clears).
	for _, s := range tx.undoSpan {
		e.dev.Flush(s.off, s.n)
	}
	e.dev.Fence()
	// Pmemobj-R: mirror the modified ranges into the replica pool.
	if e.replica != nil {
		for _, s := range tx.undoSpan {
			e.replica.WriteAt(s.off, e.dev.Slice(s.off, s.n))
			e.replica.Flush(s.off, s.n)
		}
		e.replica.Fence()
	}
	// Metadata ops ride the same lane: appending them and flipping the
	// lane to redo-committed makes them atomic with the data commit.
	for _, res := range tx.allocs {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(res.Op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	for _, op := range tx.frees {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	if tx.root != nil {
		var p [24]byte
		binary.LittleEndian.PutUint64(p[0:], tx.root.oid.Pool)
		binary.LittleEndian.PutUint64(p[8:], tx.root.oid.Off)
		binary.LittleEndian.PutUint64(p[16:], tx.root.size)
		if err := tx.w.Append(recRoot, p[:]); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	tx.w.Commit() // durability point: undo discarded, metadata committed
	for _, res := range tx.allocs {
		if err := e.applyAllocOp(res.Op); err != nil {
			return fmt.Errorf("core: applying alloc op: %w (%w)", err, ErrNeedReopen)
		}
	}
	for _, op := range tx.frees {
		if err := e.applyAllocOp(op); err != nil {
			return fmt.Errorf("core: applying free op: %w (%w)", err, ErrNeedReopen)
		}
	}
	if tx.root != nil {
		e.applyRoot(tx.root.oid, tx.root.size)
	}
	tx.releaseLate()
	tx.w.Clear()
	return nil
}
