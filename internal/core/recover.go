package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/logrec"
	"github.com/pangolin-go/pangolin/internal/xor"
)

// recoverPages is online corruption recovery (§3.6): freeze the pool,
// persist a bad-page record, rebuild each page from redundancy, clear the
// record, thaw. It is single-flight; a concurrent faulting thread waits
// and retries its read against the repaired page.
func (e *Engine) recoverPages(pages []uint64) error {
	e.recoverMu.Lock()
	defer e.recoverMu.Unlock()
	e.freeze()
	defer e.unfreeze()
	if err := e.writeBadPageRecord(pages); err != nil {
		return err
	}
	for _, p := range pages {
		if err := e.repairPage(p); err != nil {
			return fmt.Errorf("core: repairing page %#x: %w (%w)", p, err, ErrNeedReopen)
		}
	}
	if err := e.writeBadPageRecord(nil); err != nil {
		return err
	}
	e.stats.Recovered.Add(uint64(len(pages)))
	return nil
}

// writeBadPageRecord persists the set of pages under repair (both copies),
// making recovery idempotent across crashes.
func (e *Engine) writeBadPageRecord(pages []uint64) error {
	img, err := layout.EncodeBadPageRecord(layout.BadPageRecord{Pages: pages})
	if err != nil {
		return err
	}
	e.dev.WriteAt(layout.BadPageRecOff(), img)
	e.dev.Persist(layout.BadPageRecOff(), layout.PageSize)
	e.dev.WriteAt(layout.BadPageRecReplicaOff(), img)
	e.dev.Persist(layout.BadPageRecReplicaOff(), layout.PageSize)
	return nil
}

// repairPage restores one page from the pool's redundancy: zone parity for
// data pages, row XOR for parity pages, the paired copy for replicated
// metadata. The pool must be quiesced.
func (e *Engine) repairPage(pageOff uint64) error {
	pageOff &^= uint64(layout.PageSize - 1)
	geo := e.geo
	switch {
	case geo.InZoneData(pageOff):
		return e.rebuildDataPage(pageOff)
	case geo.InZoneParity(pageOff):
		return e.rebuildParityPage(pageOff)
	default:
		src, ok := e.pairedCopy(pageOff)
		if !ok {
			return fmt.Errorf("unprotected region at %#x", pageOff)
		}
		if !e.mode.ReplicateMeta() && pageOff >= geo.LanesOff() && pageOff < geo.ZonesOff() {
			return fmt.Errorf("log region lost and mode %v does not replicate logs", e.mode)
		}
		buf := make([]byte, layout.PageSize)
		if err := e.dev.ReadAt(buf, src); err != nil {
			return fmt.Errorf("paired copy also unreadable: %w", err)
		}
		return e.writeRepaired(pageOff, buf)
	}
}

// pairedCopy maps a replicated metadata page to its twin.
func (e *Engine) pairedCopy(pageOff uint64) (uint64, bool) {
	geo := e.geo
	switch {
	case pageOff == 0:
		return layout.PageSize, true
	case pageOff == layout.PageSize:
		return 0, true
	case pageOff == layout.BadPageRecOff():
		return layout.BadPageRecReplicaOff(), true
	case pageOff == layout.BadPageRecReplicaOff():
		return layout.BadPageRecOff(), true
	case pageOff >= geo.LanesOff() && pageOff < geo.LanesReplicaOff():
		return pageOff + (geo.LanesReplicaOff() - geo.LanesOff()), true
	case pageOff >= geo.LanesReplicaOff() && pageOff < geo.OverflowOff():
		return pageOff - (geo.LanesReplicaOff() - geo.LanesOff()), true
	case pageOff >= geo.OverflowOff() && pageOff < geo.OverflowReplicaOff():
		return pageOff + (geo.OverflowReplicaOff() - geo.OverflowOff()), true
	case pageOff >= geo.OverflowReplicaOff() && pageOff < geo.ZonesOff():
		return pageOff - (geo.OverflowReplicaOff() - geo.OverflowOff()), true
	}
	// Zone headers: primary/replica pages at the zone base.
	if pageOff >= geo.ZonesOff() && pageOff < geo.PoolSize() {
		rel := (pageOff - geo.ZonesOff()) % geo.ZoneSize()
		switch rel {
		case 0:
			return pageOff + layout.PageSize, true
		case layout.PageSize:
			return pageOff - layout.PageSize, true
		}
	}
	return 0, false
}

// rebuildDataPage reconstructs a zone-data page from parity and the
// surviving rows (§3.6): the page column mechanism.
func (e *Engine) rebuildDataPage(pageOff uint64) error {
	if !e.mode.Parity() {
		return fmt.Errorf("mode %v maintains no parity", e.mode)
	}
	loc := e.geo.Locate(pageOff)
	buf := make([]byte, layout.PageSize)
	if err := e.par.ReconstructColumn(loc.Zone, loc.Col, layout.PageSize, loc.Row, buf); err != nil {
		return err
	}
	return e.writeRepaired(pageOff, buf)
}

// rebuildParityPage recomputes a parity page from the data rows.
func (e *Engine) rebuildParityPage(pageOff uint64) error {
	if !e.mode.Parity() {
		return fmt.Errorf("mode %v maintains no parity", e.mode)
	}
	geo := e.geo
	z := (pageOff - geo.ZonesOff()) / geo.ZoneSize()
	col := pageOff - geo.ParityBase(z)
	acc := make([]byte, layout.PageSize)
	row := make([]byte, layout.PageSize)
	for r := uint64(0); r < geo.DataRows(); r++ {
		if err := e.dev.ReadAt(row, geo.RowByteOff(z, r, col)); err != nil {
			return fmt.Errorf("surviving row %d unreadable: %w", r, err)
		}
		xor.Into(acc, row)
	}
	return e.writeRepaired(pageOff, acc)
}

// writeRepaired installs repaired page contents: RepairPage when the page
// is poisoned (clearing the poison, per the ACPI repair flow), a plain
// persisted write otherwise (scribble recovery).
func (e *Engine) writeRepaired(pageOff uint64, data []byte) error {
	if e.dev.IsPoisoned(pageOff) {
		return e.dev.RepairPage(pageOff, data)
	}
	e.dev.WriteAt(pageOff, data)
	e.dev.Persist(pageOff, layout.PageSize)
	return nil
}

// recoverAtOpen restores pool consistency after a crash: repair recorded
// and known-bad pages, replay committed redo logs, roll back active undo
// logs, recompute parity for every touched column, and resync the replica
// pool (Pmemobj-R offline repair).
func (e *Engine) recoverAtOpen() error {
	// Known-bad pages first: replay needs readable media. This is the
	// paper's "Linux keeps track of known bad pages across reboots"
	// path, which Pangolin consumes at pool open (§3.3) — implemented
	// here, though the paper's artifact left it future work.
	pageSet := make(map[uint64]bool)
	for _, rec := range e.readBadPageRecords() {
		pageSet[rec] = true
	}
	for _, p := range e.dev.PoisonedPages() {
		pageSet[p] = true
	}
	if e.replica != nil {
		// Pmemobj-R: restore primary pages from the replica, then
		// resync the replica (offline repair, §2.3).
		for p := range pageSet {
			buf := make([]byte, layout.PageSize)
			if err := e.replica.ReadAt(buf, p); err != nil {
				return fmt.Errorf("core: page %#x lost in both pools: %w", p, err)
			}
			if err := e.dev.RepairPage(p, buf); err != nil {
				return err
			}
		}
		for _, p := range e.replica.PoisonedPages() {
			buf := make([]byte, layout.PageSize)
			if err := e.dev.ReadAt(buf, p); err != nil {
				return fmt.Errorf("core: replica page %#x lost in both pools: %w", p, err)
			}
			if err := e.replica.RepairPage(p, buf); err != nil {
				return err
			}
		}
	} else {
		for p := range pageSet {
			if err := e.repairPage(p); err != nil {
				// Best effort: modes without the needed redundancy
				// leave the page bad, and later reads fault on it —
				// matching libpmemobj, which cannot repair at all.
				if e.mode.Parity() {
					return fmt.Errorf("core: open-time repair of page %#x: %w", p, err)
				}
				continue
			}
		}
	}
	if len(pageSet) > 0 {
		if err := e.writeBadPageRecord(nil); err != nil {
			return err
		}
		e.stats.Recovered.Add(uint64(len(pageSet)))
	}

	// Logs: replay committed redo, roll back active undo.
	type colRange struct{ zone, col, n uint64 }
	var touched []colRange
	var absSpans []span // absolute ranges, for replica resync
	noteRange := func(off, n uint64) {
		absSpans = append(absSpans, span{off: off, n: n})
		for n > 0 {
			loc := e.geo.Locate(off)
			seg := min(n, e.geo.RowSize()-loc.Col)
			touched = append(touched, colRange{loc.Zone, loc.Col, seg})
			off += seg
			n -= seg
		}
	}
	for _, log := range e.lm.Recover() {
		switch log.State {
		case logrec.StateRedoCommitted:
			for _, rec := range log.Records {
				switch rec.Kind {
				case recData:
					off := binary.LittleEndian.Uint64(rec.Payload)
					data := rec.Payload[8:]
					e.dev.WriteAt(off, data)
					e.dev.Persist(off, uint64(len(data)))
					if e.geo.InZoneData(off) {
						noteRange(off, uint64(len(data)))
					}
				case recZero:
					off := binary.LittleEndian.Uint64(rec.Payload)
					n := binary.LittleEndian.Uint64(rec.Payload[8:])
					e.dev.Memset(off, 0, n)
					e.dev.Persist(off, n)
					if e.geo.InZoneData(off) {
						noteRange(off, n)
					}
				case recAllocOp:
					op, err := alloc.DecodeOp(rec.Payload)
					if err != nil {
						return fmt.Errorf("core: corrupt alloc op in committed log: %w", err)
					}
					if err := alloc.ApplyToDevice(e.dev, e.geo, op, func(off uint64, old, new_ []byte) {
						noteRange(off, uint64(len(new_)))
						if e.replica != nil {
							e.replica.WriteAt(off, new_)
							e.replica.Persist(off, uint64(len(new_)))
						}
					}); err != nil {
						return fmt.Errorf("core: replaying alloc op: %w", err)
					}
				case recRoot:
					oid := layout.OID{
						Pool: binary.LittleEndian.Uint64(rec.Payload[0:]),
						Off:  binary.LittleEndian.Uint64(rec.Payload[8:]),
					}
					e.applyRoot(oid, binary.LittleEndian.Uint64(rec.Payload[16:]))
				case recSnapshot:
					// Undo snapshots in a committed lane are dead
					// weight (pmemobj commit); never reapply them.
				}
			}
		case logrec.StateUndoActive:
			for i := len(log.Records) - 1; i >= 0; i-- {
				rec := log.Records[i]
				if rec.Kind != recSnapshot {
					continue
				}
				off := binary.LittleEndian.Uint64(rec.Payload)
				old := rec.Payload[8:]
				e.dev.WriteAt(off, old)
				e.dev.Persist(off, uint64(len(old)))
				if e.geo.InZoneData(off) {
					noteRange(off, uint64(len(old)))
				}
			}
		}
		if err := e.lm.ClearRecovered(log); err != nil {
			return err
		}
	}

	// Parity is not logged (§3.6): recompute it for every column the
	// replayed or rolled-back ranges touched.
	if e.mode.Parity() {
		for _, c := range touched {
			if err := e.par.RecomputeColumn(c.zone, c.col, c.n); err != nil {
				return err
			}
		}
	}
	// Pmemobj-R: resync the replica over every range recovery touched.
	if e.replica != nil {
		for _, s := range absSpans {
			e.replica.WriteAt(s.off, e.dev.Slice(s.off, s.n))
			e.replica.Persist(s.off, s.n)
		}
	}
	return nil
}

// readBadPageRecords merges both bad-page record copies.
func (e *Engine) readBadPageRecords() []uint64 {
	var pages []uint64
	for _, off := range []uint64{layout.BadPageRecOff(), layout.BadPageRecReplicaOff()} {
		buf := make([]byte, layout.PageSize)
		if err := e.dev.ReadAt(buf, off); err != nil {
			continue // the record page itself is poisoned; the twin decides
		}
		rec := layout.DecodeBadPageRecord(buf)
		pages = append(pages, rec.Pages...)
	}
	return pages
}

// InjectMediaError poisons the page containing the given pool offset,
// destroying its contents — the §4.6 error-injection hook (mprotect/SIGBUS
// emulation in the paper, device poison here).
func (e *Engine) InjectMediaError(off uint64) {
	e.dev.Poison(off)
}

// InjectScribble overwrites [off, off+n) with random bytes, bypassing all
// library bookkeeping — the §4.6 software-corruption injection.
func (e *Engine) InjectScribble(off, n uint64, seed int64) {
	e.dev.Scribble(off, n, rand.New(rand.NewSource(seed)))
}
