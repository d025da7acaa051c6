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

// zeroRunMin is the block size at which a fresh object's zero bytes are
// logged as a recZero run instead of data, so allocating a large zeroed
// object (a hash table, a sparse node) costs log space in proportion to
// what the transaction wrote into it, not to its size. A run record is 32
// log bytes; below a few hundred bytes eliding saves little.
const zeroRunMin = 256

// csumOff is the offset of an object header's checksum field.
const csumOff = 12

// Commit makes the transaction durable and applies it. For Pangolin modes
// this is the paper's protocol (§3.4): verify canaries, refresh checksums
// incrementally, persist + replicate the redo log, set the commit flag
// (durability point), write back objects with non-temporal stores, fold
// old⊕new deltas into zone parity, apply allocator metadata ops, then
// garbage-collect the log and micro-buffers. The old side of an opened
// object's checksum refresh and parity delta is the first image of each
// declared range — the bytes Open verified, kept by AddRange — and never
// a re-read of NVMM, so a scribble between Open and Commit reaches
// neither the checksum nor parity, and the next verification of the
// object repairs it. For pmemobj modes it persists the in-place writes,
// mirrors them to the replica (Pmemobj-R), flips the lane from undo to
// committed, and applies metadata ops.
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
	objs := len(tx.statObjs)
	tx.release()
	if err == nil {
		e.stats.Commits.Add(1)
		e.stats.TxCount.Add(1)
		e.stats.TxAllocBytes.Add(tx.statAllocBytes)
		e.stats.TxModBytes.Add(tx.statModBytes)
		e.stats.TxFreeBytes.Add(tx.statFreeBytes)
		e.stats.TxAllocObjs.Add(uint64(len(tx.allocs)))
		e.stats.TxObjects.Add(uint64(objs))
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
	work := tx.bufs.Modified()
	if len(work) == 0 && len(tx.allocs) == 0 && len(tx.frees) == 0 && tx.root == nil {
		tx.w.Clear()
		e.stats.EmptyTxs.Add(1)
		return nil
	}
	// Before the commit point, so media faults here still recover online.
	if err := tx.prepare(work); err != nil {
		tx.abortReleasing()
		return err
	}

	// Enter the commit section: recovery freezes commits here.
	e.waitUnfrozen()
	e.commitGate.RLock()
	defer e.commitGate.RUnlock()

	// Log: data records, allocator ops, root update; then the commit
	// flag — the durability point.
	for _, b := range work {
		if err := tx.logBuf(b); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	if err := tx.logMeta(); err != nil {
		tx.abortReleasing()
		return err
	}
	tx.w.Commit()

	// Apply: object write-back with NT stores, one fence, then parity.
	for _, b := range work {
		base, img := b.OID.HeaderOff(), b.Image()
		for _, r := range b.Ranges() {
			e.dev.WriteNT(base+r.Off, img[r.Off:r.Off+r.Len])
		}
		if tx.refreshesCsum(b) {
			e.dev.WriteNT(base+csumOff, img[csumOff:csumOff+4])
		}
	}
	e.dev.Fence()
	if e.mode.Parity() {
		for _, b := range work {
			base, img := b.OID.HeaderOff(), b.Image()
			for _, r := range b.Ranges() {
				// The first image has served the checksum refresh;
				// turn it into the parity patch in place.
				xor.Delta(r.Old, r.Old, img[r.Off:r.Off+r.Len])
				e.updateParitySegments(base+r.Off, r.Old)
			}
			if tx.refreshesCsum(b) {
				var d [4]byte // the checksum field's old⊕new
				binary.LittleEndian.PutUint32(d[:], b.OrigCsum^b.Header().Csum)
				e.updateParitySegments(base+csumOff, d[:])
			}
		}
		e.dev.Fence()
	}
	if err := tx.applyMeta(); err != nil {
		return err
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

// refreshesCsum reports whether b's checksum field is a write-back range
// of its own: an opened object's in checksumming modes. A fresh object's
// one range is its whole image, field included.
func (tx *Tx) refreshesCsum(b *mbuf.Buf) bool {
	return tx.e.mode.Checksums() && b.Flags&mbuf.FlagAllocated == 0
}

// prepare readies the write-back set before the commit point, healing
// the poisoned pages under every write-back range first, so write-back
// never lands on a lost page whose parity it has not seen. A fresh
// object's range takes its slot's prior bytes from NVMM (the old side of
// its parity delta) and, in checksumming modes, a checksum over the whole
// image. An opened object's checksum is refreshed incrementally from its
// ranges' first images (§3.5: cost proportional to the declared bytes,
// not the object); its NVMM bytes are not read.
func (tx *Tx) prepare(work []*mbuf.Buf) error {
	e := tx.e
	csums := e.mode.Checksums()
	for _, b := range work {
		base, img := b.OID.HeaderOff(), b.Image()
		hdr := b.Header()
		if b.Flags&mbuf.FlagAllocated != 0 {
			r := &b.Ranges()[0]
			r.Old = tx.bufs.Arena().Alloc(r.Len)
			if err := e.healPoison(base, r.Len); err != nil {
				return err
			}
			if err := e.dev.ReadAt(r.Old, base); err != nil {
				return err
			}
			if csums {
				hdr.Csum = layout.ObjChecksum(img)
				b.SetHeader(hdr)
			}
			continue
		}
		sum := b.OrigCsum
		for _, r := range b.Ranges() {
			if err := e.healPoison(base+r.Off, r.Len); err != nil {
				return err
			}
			if csums {
				sum = csum.Update(sum, b.Size(), r.Off, r.Old, img[r.Off:r.Off+r.Len])
			}
		}
		if csums {
			// The checksum field is excluded from the checksum domain,
			// so no recursive refresh is needed; its old bytes are
			// OrigCsum.
			if err := e.healPoison(base+csumOff, 4); err != nil {
				return err
			}
			hdr.Csum = sum
			b.SetHeader(hdr)
		}
	}
	return nil
}

// healPoison runs online recovery on the poisoned pages under [off,
// off+n), if any, without reading the bytes.
func (e *Engine) healPoison(off, n uint64) error {
	err := e.dev.CheckPoison(off, n)
	if err == nil {
		return nil
	}
	if rerr := e.faultRepair(off, n, err); rerr != nil {
		return rerr
	}
	return e.dev.CheckPoison(off, n)
}

// logBuf appends b's redo records: its declared ranges, then its
// refreshed checksum field when that is a range of its own.
func (tx *Tx) logBuf(b *mbuf.Buf) error {
	base, img := b.OID.HeaderOff(), b.Image()
	fresh := b.Flags&mbuf.FlagAllocated != 0
	for _, r := range b.Ranges() {
		if err := tx.logRange(base+r.Off, img[r.Off:r.Off+r.Len], fresh); err != nil {
			return err
		}
	}
	if tx.refreshesCsum(b) {
		return tx.logData(base+csumOff, img[csumOff:csumOff+4])
	}
	return nil
}

// logRange appends the redo records for one range: data records of at most
// one log payload each, with a fresh object's long zero runs elided to
// recZero records.
func (tx *Tx) logRange(off uint64, data []byte, fresh bool) error {
	if !fresh || len(data) < zeroRunMin {
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
	if err := tx.logMeta(); err != nil {
		tx.abortReleasing()
		return err
	}
	tx.w.Commit() // durability point: undo discarded, metadata committed
	if err := tx.applyMeta(); err != nil {
		return err
	}
	tx.releaseLate()
	tx.w.Clear()
	return nil
}

// logMeta appends the transaction's metadata records, which both engine
// families commit with their data: allocator ops, frees, the root update.
func (tx *Tx) logMeta() error {
	for _, res := range tx.allocs {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(res.Op)); err != nil {
			return err
		}
	}
	for _, op := range tx.frees {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(op)); err != nil {
			return err
		}
	}
	if tx.root == nil {
		return nil
	}
	var p [24]byte
	binary.LittleEndian.PutUint64(p[0:], tx.root.oid.Pool)
	binary.LittleEndian.PutUint64(p[8:], tx.root.oid.Off)
	binary.LittleEndian.PutUint64(p[16:], tx.root.size)
	return tx.w.Append(recRoot, p[:])
}

// applyMeta applies what logMeta logged, after the durability point. A
// failure leaves the committed log for reopen to replay.
func (tx *Tx) applyMeta() error {
	e := tx.e
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
	return nil
}
