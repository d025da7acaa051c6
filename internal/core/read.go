package core

import (
	"errors"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// CorruptionError reports object corruption the engine could not repair.
type CorruptionError struct {
	OID    layout.OID
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("core: object %#x corrupt: %s", e.OID.Off, e.Reason)
}

// readHeaderChecked reads and sanity-checks an object header, running
// online recovery on media faults or implausible contents when repair is
// set (and failing fast otherwise — the concurrent read path, which must
// never mutate the pool). The header is validated against the allocator's
// record of the slot so a corrupted size field cannot cause out-of-bounds
// reads.
//
// The pre-read OID sanity failures are typed *CorruptionError: a live
// pool never hands out such an OID, so reaching here with one means the
// caller followed a corrupted pointer (a scribbled structure node read
// without verification — the Table 4 window) — typing it lets owner
// paths distinguish "scrub and retry" from resource errors. They are
// returned directly, never routed into page repair: the garbage OID
// names no page worth rebuilding.
func (e *Engine) readHeaderChecked(oid layout.OID, repair bool) (layout.ObjHeader, error) {
	if oid.IsNil() || oid.Pool != e.uuid {
		return layout.ObjHeader{}, &CorruptionError{OID: oid, Reason: "invalid OID for this pool"}
	}
	hoff := oid.HeaderOff()
	loc, ok := e.lay.LocateChunk(hoff)
	if !ok {
		return layout.ObjHeader{}, &CorruptionError{OID: oid, Reason: "OID outside zone data"}
	}
	cap_, err := e.heap.SlotSizeAt(hoff, loc)
	if err != nil {
		return layout.ObjHeader{}, &CorruptionError{OID: oid, Reason: err.Error()}
	}
	var hb [layout.ObjHeaderSize]byte
	for attempt := 0; ; attempt++ {
		err := e.dev.ReadAt(hb[:], hoff)
		if err == nil {
			hdr := layout.DecodeObjHeader(hb[:])
			if hdr.Size >= layout.ObjHeaderSize && hdr.Size <= cap_ {
				return hdr, nil
			}
			// Implausible header: treat as corruption and rebuild the
			// header's page from parity.
			err = &CorruptionError{OID: oid, Reason: fmt.Sprintf("header size %d vs slot %d", hdr.Size, cap_)}
		}
		if !repair || attempt >= 2 {
			return layout.ObjHeader{}, err
		}
		if rerr := e.faultRepair(hoff, layout.ObjHeaderSize, err); rerr != nil {
			return layout.ObjHeader{}, rerr
		}
	}
}

// readImage loads an object's full image (header + data) into the slice
// dst returns for its size, optionally verifying the checksum there, with
// online recovery on faults (§3.3, §3.6). dst is asked again when a repair
// changes the header's size.
func (e *Engine) readImage(oid layout.OID, verify bool, dst func(size uint64) []byte) (layout.ObjHeader, error) {
	for attempt := 0; ; attempt++ {
		hdr, err := e.readHeaderChecked(oid, true)
		if err != nil {
			return layout.ObjHeader{}, err
		}
		img := dst(hdr.Size)
		if err := e.dev.ReadAt(img, oid.HeaderOff()); err != nil {
			if attempt >= 2 {
				return layout.ObjHeader{}, err
			}
			if rerr := e.faultRepair(oid.HeaderOff(), hdr.Size, err); rerr != nil {
				return layout.ObjHeader{}, rerr
			}
			continue
		}
		if verify {
			if got := layout.ObjChecksum(img); got != hdr.Csum {
				cerr := &CorruptionError{OID: oid,
					Reason: fmt.Sprintf("checksum %#x, stored %#x", got, hdr.Csum)}
				if attempt >= 2 {
					return layout.ObjHeader{}, cerr
				}
				if rerr := e.faultRepair(oid.HeaderOff(), hdr.Size, cerr); rerr != nil {
					return layout.ObjHeader{}, rerr
				}
				continue
			}
			e.stats.VerifiedBytes.Add(hdr.UserSize())
		} else {
			e.stats.UnverifiedBytes.Add(hdr.UserSize())
		}
		return hdr, nil
	}
}

// verifyImage runs readImage's checks on a throwaway copy.
func (e *Engine) verifyImage(oid layout.OID) (layout.ObjHeader, error) {
	var img []byte
	return e.readImage(oid, true, func(size uint64) []byte {
		if uint64(cap(img)) < size {
			img = make([]byte, size)
		}
		return img[:size]
	})
}

// loadBuf opens oid into a micro-buffer (§3.2) taken from t, or a fresh
// one of the caller's own when t is nil: the image is read straight into
// the buffer and verified there — one copy of the object, however large.
func (e *Engine) loadBuf(oid layout.OID, t *mbuf.Table) (*mbuf.Buf, error) {
	var b *mbuf.Buf
	hdr, err := e.readImage(oid, e.mode.Checksums(), func(size uint64) []byte {
		switch {
		case b != nil && b.Size() == size:
		case t != nil:
			b = t.Take(oid, size, e.canary)
		default:
			b = mbuf.New(oid, size, e.canary)
		}
		return b.Image()
	})
	if err != nil {
		return nil, err
	}
	b.OrigCsum = hdr.Csum
	return b, nil
}

// read is the engine's one read rule (pgl_get, §3.3–3.4), behind both the
// owner path (Get) and the read view (GetRO). It checks the header and
// the poison map, then checksums the live bytes of a checksummed object
// unless the verified-read table (Engine.verified) shows it verified since
// its last modification; VerifyConservative ignores the table and verifies
// every access. Size sets no limit: a large object costs one checksum per
// modification, no more than the Open that modified it paid. A scribble
// landing after a verification is windowed: the object's next
// modification, a scrub pass or ForgetVerified catches it (Table 4).
//
// On a fault the owner path (repair) runs online recovery and retries;
// the read view fails fast with the typed error and never mutates the
// pool.
func (e *Engine) read(oid layout.OID, repair bool) ([]byte, error) {
	hoff := oid.HeaderOff()
	for attempt := 0; ; attempt++ {
		hdr, err := e.readHeaderChecked(oid, repair)
		if err != nil {
			return nil, err
		}
		if err = e.dev.CheckPoison(hoff, hdr.Size); err == nil {
			err = e.verifyLive(oid, hdr)
		}
		if err == nil {
			return e.dev.Slice(oid.Off, hdr.UserSize()), nil
		}
		if !repair || attempt >= 2 {
			return nil, err
		}
		if rerr := e.faultRepair(hoff, hdr.Size, err); rerr != nil {
			return nil, rerr
		}
	}
}

// verifyLive applies read's checksum rule to the object's live bytes and
// counts the access as verified or not (Table 4). The caller keeps the
// range stable: the read view excludes commits and repairs, and the owner
// is the goroutine that commits. Checksumming in place needs no image
// copy; a mismatch is retried from the top after repair.
func (e *Engine) verifyLive(oid layout.OID, hdr layout.ObjHeader) error {
	conservative := e.opts.Policy == VerifyConservative
	if !e.mode.Checksums() {
		e.stats.UnverifiedBytes.Add(hdr.UserSize())
		return nil
	}
	hoff := oid.HeaderOff()
	w, bit := e.verifiedBit(hoff)
	if !conservative && w.Load()&bit != 0 {
		e.stats.UnverifiedBytes.Add(hdr.UserSize())
		return nil
	}
	if got := layout.ObjChecksum(e.dev.Slice(hoff, hdr.Size)); got != hdr.Csum {
		return &CorruptionError{OID: oid, Reason: fmt.Sprintf("checksum %#x, stored %#x", got, hdr.Csum)}
	}
	w.Or(bit)
	e.stats.VerifiedBytes.Add(hdr.UserSize())
	return nil
}

// Get returns read-only direct access to an object's user data without
// micro-buffering (pgl_get, §3.4), under read's rule: verified once per
// modification (every access under VerifyConservative), with online
// recovery on a fault.
func (e *Engine) Get(oid layout.OID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	return e.read(oid, true)
}

// GetRO is the concurrent verified-read fast path (§3.3: readers verify
// per-object checksums straight from NVMM and do not serialize against
// each other). It returns read-only direct access to an object's user
// data under read's rule, the same as Get's, and takes no lock.
//
// Unlike Get it NEVER mutates the pool: media faults and checksum
// mismatches fail fast with their typed errors instead of triggering
// online recovery, so any number of GetRO calls may run concurrently
// with each other. The caller must exclude every mutation — commits,
// scrub steps, online repairs — for the length of the read
// (internal/shard's reader gate provides that exclusion) and, on any
// error, retry through the owning goroutine's repairing path.
func (e *Engine) GetRO(oid layout.OID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	return e.read(oid, false)
}

// ObjectType returns the stored type of an object.
func (e *Engine) ObjectType(oid layout.OID) (uint32, error) {
	hdr, err := e.readHeaderChecked(oid, true)
	if err != nil {
		return 0, err
	}
	return hdr.Type, nil
}

// ObjectSize returns the user-data size of an object.
func (e *Engine) ObjectSize(oid layout.OID) (uint64, error) {
	hdr, err := e.readHeaderChecked(oid, true)
	if err != nil {
		return 0, err
	}
	return hdr.UserSize(), nil
}

// CheckObject verifies an object's checksum on demand (manual verification
// for applications using pgl_get, §3.4), repairing on mismatch when
// possible.
func (e *Engine) CheckObject(oid layout.OID) error {
	if !e.mode.Checksums() {
		return fmt.Errorf("core: mode %v maintains no object checksums", e.mode)
	}
	_, err := e.verifyImage(oid)
	return err
}

// faultRepair dispatches online recovery for a fault observed while
// reading [off, off+n): media errors repair the poisoned page; checksum
// mismatches rebuild every page the object spans (§3.6). Callers retry
// the read after a nil return.
//
// Online recovery requires a micro-buffered mode: the freeze protocol
// quiesces commits, and micro-buffered transactions touch NVMM only
// inside commits. The direct-write modes keep no parity, and Pmemobj-R
// repairs from its replica only offline, as libpmemobj's replication
// does (§2.3).
func (e *Engine) faultRepair(off, n uint64, cause error) error {
	if !e.mode.MicroBuffered() {
		return fmt.Errorf("core: %w: %w", cause, ErrNeedReopen)
	}
	var pe *nvm.PoisonError
	var ce *CorruptionError
	switch {
	case errors.As(cause, &pe):
		return e.recoverPages([]uint64{pe.Off})
	case errors.As(cause, &ce):
		first := off &^ uint64(layout.PageSize-1)
		last := (off + n - 1) &^ uint64(layout.PageSize-1)
		var pages []uint64
		for p := first; p <= last; p += layout.PageSize {
			pages = append(pages, p)
		}
		return e.recoverPages(pages)
	default:
		return cause
	}
}
