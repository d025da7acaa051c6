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

// loadBuf opens oid into a fresh micro-buffer (§3.2): the image is read
// straight into the buffer and verified there — one allocation and one
// copy of the object, however large.
func (e *Engine) loadBuf(oid layout.OID) (*mbuf.Buf, error) {
	var b *mbuf.Buf
	hdr, err := e.readImage(oid, e.mode.Checksums(), func(size uint64) []byte {
		if b == nil || b.Size() != size {
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

// Get returns read-only direct access to an object's user data without
// micro-buffering (pgl_get, §3.4). Under VerifyConservative the checksum
// is verified first; otherwise the access is counted as unverified
// (Table 4) and relies on scrubbing for eventual detection.
func (e *Engine) Get(oid layout.OID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	verify := e.opts.Policy == VerifyConservative && e.mode.Checksums()
	if verify {
		// The verification pass reads a copy; hand out the live bytes.
		hdr, err := e.verifyImage(oid)
		if err != nil {
			return nil, err
		}
		return e.dev.Slice(oid.Off, hdr.UserSize()), nil
	}
	hdr, err := e.readHeaderChecked(oid, true)
	if err != nil {
		return nil, err
	}
	if err := e.dev.CheckPoison(oid.HeaderOff(), hdr.Size); err != nil {
		if rerr := e.faultRepair(oid.HeaderOff(), hdr.Size, err); rerr != nil {
			return nil, rerr
		}
	}
	e.stats.UnverifiedBytes.Add(hdr.UserSize())
	return e.dev.Slice(oid.Off, hdr.UserSize()), nil
}

// ErrReadBusy reports that a concurrent read (GetRO) could not proceed
// because the pool is frozen — or a freeze is pending — for online
// recovery or scrubbing. The caller should route the read through the
// pool's owner goroutine, whose repairing read path will wait the freeze
// out.
var ErrReadBusy = errors.New("core: pool frozen or freezing; route the read through the owner path")

// GetRO is the concurrent verified-read fast path (§3.3: readers verify
// per-object checksums straight from NVMM and do not serialize against
// each other). It returns read-only direct access to an object's user
// data, verifying the object checksum first unless the verified-read
// table (Engine.verified) shows the object verified since it was last
// modified, or the object exceeds Options.ReadVerifyLimit (whole-object
// verification of large array objects would make reads cost O(object);
// they keep header + poison checks and rely on scrubbing, as under the
// default verify policy). A scribble landing after a verification is
// windowed the same way: the next modification or scrub pass catches it.
//
// Unlike Get it NEVER mutates the pool: media faults, checksum
// mismatches, and freeze windows fail fast — poison and corruption with
// their typed errors, freezes with ErrReadBusy — instead of triggering
// online recovery, so any number of GetRO calls may run concurrently
// with each other and with Scrub/online recovery. The caller must
// guarantee no transaction commits concurrently (internal/shard's reader
// gate provides that exclusion) and, on any error, retry through the
// owning goroutine's repairing path.
func (e *Engine) GetRO(oid layout.OID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// The commit gate's read side is shared with commit applies and
	// excluded by freeze (recovery, scrub). Holding it for the read means
	// a repair can never rewrite pages under us; TryRLock (rather than
	// RLock) keeps the fast path non-blocking — a pending freeze bounces
	// the read to the owner path instead of queueing readers behind it.
	if !e.commitGate.TryRLock() {
		return nil, ErrReadBusy
	}
	defer e.commitGate.RUnlock()
	if e.frozen.Load() {
		return nil, ErrReadBusy
	}
	hdr, err := e.readHeaderChecked(oid, false)
	if err != nil {
		return nil, err
	}
	hoff := oid.HeaderOff()
	if err := e.dev.CheckPoison(hoff, hdr.Size); err != nil {
		return nil, err
	}
	if e.mode.Checksums() && hdr.Size <= e.opts.roVerifyLimit() {
		if w, bit := e.verifiedBit(hoff); w.Load()&bit == 0 {
			// Checksum the live bytes in place: the caller excludes
			// commits and the commit gate excludes repairs, so the range
			// is stable — no image copy needed (the repairing readImage
			// must copy because it may retry; this path fails fast).
			if got := layout.ObjChecksum(e.dev.Slice(hoff, hdr.Size)); got != hdr.Csum {
				return nil, &CorruptionError{OID: oid,
					Reason: fmt.Sprintf("checksum %#x, stored %#x", got, hdr.Csum)}
			}
			w.Or(bit)
			e.stats.VerifiedBytes.Add(hdr.UserSize())
			return e.dev.Slice(oid.Off, hdr.UserSize()), nil
		}
	}
	e.stats.UnverifiedBytes.Add(hdr.UserSize())
	return e.dev.Slice(oid.Off, hdr.UserSize()), nil
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
// inside commits. Direct-write modes (Pmemobj-P) mutate NVMM mid-
// transaction, so their parity is repair-safe only offline — the same
// restriction libpmemobj's replication has (§2.3).
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
