package core

import (
	"errors"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// ScrubReport summarizes scrubbing work (§3.3 "Scrub" mode): one full
// pass, one incremental step, or any merged set of either.
type ScrubReport struct {
	Objects     int `json:"objects"`      // live objects examined
	BadObjects  int `json:"bad_objects"`  // checksum mismatches found
	Repaired    int `json:"repaired"`     // objects restored from parity
	Unrecovered int `json:"unrecovered"`  // objects that stayed corrupt
	ParityFixes int `json:"parity_fixes"` // parity columns recomputed
	PagesHealed int `json:"pages_healed"` // poisoned pages repaired
	// PagesUnrecovered counts poisoned pages whose repair FAILED (a
	// double fault, or a mode without the needed redundancy). The
	// scrubber quarantines them for the rest of the pass instead of
	// wedging on them — they are retried once per pass — so the rest of
	// the pool keeps getting verified; reopen-time recovery is the
	// escape hatch for the page itself.
	PagesUnrecovered int `json:"pages_unrecovered"`
	// ChecksumsVerified reports whether object checksums were actually
	// verified: false in checksum-less modes (pmemobj, pmemobj-r, and the
	// non-C Pangolin modes), where scrubbing covers pages and parity only
	// and "0 bad objects" must not be mistaken for "verified clean".
	ChecksumsVerified bool `json:"checksums_verified"`
}

// Add merges other into r field by field, so call sites that combine
// reports (per-shard merges, per-step accumulation) cannot silently drop
// a newly added field. Counters sum; ChecksumsVerified ANDs — a merged
// report only claims checksum coverage when every constituent verified
// (start an accumulator with ChecksumsVerified: true before merging).
func (r *ScrubReport) Add(other ScrubReport) {
	r.Objects += other.Objects
	r.BadObjects += other.BadObjects
	r.Repaired += other.Repaired
	r.Unrecovered += other.Unrecovered
	r.ParityFixes += other.ParityFixes
	r.PagesHealed += other.PagesHealed
	r.PagesUnrecovered += other.PagesUnrecovered
	r.ChecksumsVerified = r.ChecksumsVerified && other.ChecksumsVerified
}

// Fixed returns the repairs the report carries: the scrub-health number
// maintenance schedulers expose as bg_repairs.
func (r ScrubReport) Fixed() int { return r.Repaired + r.ParityFixes + r.PagesHealed }

// ScrubberConfig bounds the work one Scrubber.Step performs — and with
// it the step's freeze window, the only time a step excludes
// transactions. Zero values select the defaults.
type ScrubberConfig struct {
	// MaxObjectsPerStep caps the live objects verified per step
	// (default 64).
	MaxObjectsPerStep int
	// MaxPagesPerStep caps the poisoned pages repaired per step
	// (default 8).
	MaxPagesPerStep int
	// MaxParityBytesPerStep caps the parity bytes verified per step
	// (default 256 KB).
	MaxParityBytesPerStep uint64
}

func (c ScrubberConfig) objectsPerStep() int {
	if c.MaxObjectsPerStep <= 0 {
		return 64
	}
	return c.MaxObjectsPerStep
}

func (c ScrubberConfig) pagesPerStep() int {
	if c.MaxPagesPerStep <= 0 {
		return 8
	}
	return c.MaxPagesPerStep
}

func (c ScrubberConfig) parityBytesPerStep() uint64 {
	if c.MaxParityBytesPerStep == 0 {
		return 256 << 10
	}
	// Whole pages: parity repair is page-column granular.
	n := c.MaxParityBytesPerStep &^ uint64(layout.PageSize-1)
	if n == 0 {
		n = layout.PageSize
	}
	return n
}

// Scrubber phases. Poisoned pages are not a phase: every step drains the
// known-bad page list first (bounded), so a media error never waits a
// whole pass for repair.
const (
	scrubObjects uint8 = iota // verify live-object checksums
	scrubParity               // verify the zone parity invariant
)

// Scrubber is a resumable cursor over a pool's integrity state: the
// known-bad page list, the live objects, and the zone parity invariant.
// Each Step verifies and repairs one bounded chunk under a short freeze
// window, so full-pool integrity is the fixpoint of many cheap steps
// instead of one long stop-the-world pass. A Scrubber belongs to the
// pool's owner goroutine (or any external serialization): Steps must not
// run concurrently with each other, but transactions, reads, and online
// recovery may freely interleave between Steps.
type Scrubber struct {
	e   *Engine
	cfg ScrubberConfig

	phase     uint8
	objCursor uint64 // resume object iteration after this base offset
	zone      uint64 // parity cursor
	col       uint64
	passes    uint64
	// badPages quarantines poisoned pages whose repair failed, so one
	// dead page cannot wedge every subsequent step (and with it all
	// background verification for the pool). Cleared when a pass
	// completes: each pass retries the quarantine once.
	badPages map[uint64]bool
}

// NewScrubber returns a scrubber positioned at the start of a pass.
func (e *Engine) NewScrubber(cfg ScrubberConfig) *Scrubber {
	return &Scrubber{e: e, cfg: cfg, badPages: make(map[uint64]bool)}
}

// Passes returns how many full passes this scrubber has completed.
func (s *Scrubber) Passes() uint64 { return s.passes }

// Step verifies and repairs one bounded chunk of the pool: first up to
// MaxPagesPerStep known-poisoned pages, then — if the page list is
// drained — either up to MaxObjectsPerStep live-object checksums or up
// to MaxParityBytesPerStep of the parity invariant, whichever the cursor
// points at. The pool is frozen only for the duration of the step (the
// §3.6 freeze protocol), so the freeze window is bounded by the
// per-step caps. done reports that this step completed a full pass: all
// known-bad pages, every live object, and every parity zone have been
// covered since the cursor last reset.
func (s *Scrubber) Step() (rep ScrubReport, done bool, err error) {
	e := s.e
	if e.closed.Load() {
		return ScrubReport{}, false, ErrClosed
	}
	e.recoverMu.Lock()
	defer e.recoverMu.Unlock()
	e.freeze()
	defer e.unfreeze()
	rep.ChecksumsVerified = e.mode.Checksums()

	defer func() {
		if err == nil {
			e.stats.ScrubSteps.Add(1)
			e.stats.ScrubFixed.Add(uint64(rep.Fixed()))
			if done {
				s.passes++
				e.stats.ScrubRuns.Add(1)
			}
		}
	}()

	// Known-bad pages first, every step: a fresh media error is repaired
	// within one step of being seen instead of waiting for the cursor to
	// come around. The phase work below still runs — page drain and
	// phase budget are independent bounds, and a step must ALWAYS
	// advance the cursor, or sustained poison arrival could starve pass
	// completion (and every SCRUB waiter) forever.
	s.stepPages(&rep)

	switch s.phase {
	case scrubObjects:
		if err := s.stepObjects(&rep); err != nil {
			return rep, false, err
		}
	case scrubParity:
		if err := s.stepParity(&rep); err != nil {
			return rep, false, err
		}
	}
	// A pass completes when the parity cursor wraps (or, without parity,
	// when the object cursor wraps; without either the pass is just the
	// page drain).
	if s.phase == scrubObjects && s.objCursor == 0 {
		// Object phase finished this step; move on to parity.
		s.phase = scrubParity
		s.zone, s.col = 0, 0
		if !e.mode.Parity() {
			s.phase = scrubObjects
			done = true
		}
	} else if s.phase == scrubParity && s.zone == 0 && s.col == 0 {
		s.phase = scrubObjects
		done = true
	}
	if done {
		// Retry quarantined pages once per pass: transient causes (a
		// mode switch, repaired parity) get another chance, permanent
		// ones keep showing up as pages_unrecovered each pass.
		clear(s.badPages)
	}
	return rep, done, nil
}

// stepPages repairs up to the per-step cap of known-poisoned pages. A
// page whose repair fails is counted unrecovered and quarantined for
// the rest of the pass — never an error: one dead page (double fault,
// or a mode without redundancy) must not wedge the scrubber and stop
// background verification for the whole pool.
func (s *Scrubber) stepPages(rep *ScrubReport) {
	e := s.e
	budget := s.cfg.pagesPerStep()
	for _, p := range e.dev.PoisonedPages() {
		if budget == 0 {
			break
		}
		if s.badPages[p] {
			continue
		}
		if err := e.repairPage(p); err != nil {
			s.badPages[p] = true
			rep.PagesUnrecovered++
			continue
		}
		rep.PagesHealed++
		budget--
	}
}

// stepObjects verifies up to the per-step cap of live-object checksums,
// resuming after objCursor in address order. When the heap is exhausted
// the cursor resets to zero, signalling the end of the object phase. In
// checksum-less modes the phase is a no-op (the report's
// ChecksumsVerified field says so explicitly).
func (s *Scrubber) stepObjects(rep *ScrubReport) error {
	e := s.e
	if !e.mode.Checksums() {
		s.objCursor = 0
		return nil
	}
	capN := s.cfg.objectsPerStep()
	// Collect one extra object so "exactly cap remained" still ends the
	// phase on this step rather than burning an empty step next time.
	// ObjectsFrom resumes by address arithmetic, so a step deep into a
	// large heap does not rescan the objects behind the cursor.
	objs := make([]alloc.ObjectInfo, 0, capN+1)
	e.heap.ObjectsFrom(s.objCursor, func(o alloc.ObjectInfo) bool {
		objs = append(objs, o)
		return len(objs) < capN+1
	})
	more := len(objs) > capN
	if more {
		objs = objs[:capN]
	}
	for _, o := range objs {
		rep.Objects++
		if err := s.scrubOneObject(o, rep); err != nil {
			return err
		}
	}
	if more {
		s.objCursor = objs[len(objs)-1].Base
	} else {
		s.objCursor = 0
	}
	return nil
}

// scrubOneObject verifies one object and, on mismatch, rebuilds every
// page it spans from parity and re-verifies.
func (s *Scrubber) scrubOneObject(o alloc.ObjectInfo, rep *ScrubReport) error {
	e := s.e
	ok, err := e.scrubObject(o)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	rep.BadObjects++
	first := o.Base &^ uint64(layout.PageSize-1)
	last := (o.Base + o.Capacity - 1) &^ uint64(layout.PageSize-1)
	repairFailed := false
	for p := first; p <= last; p += layout.PageSize {
		if err := e.repairPage(p); err != nil {
			repairFailed = true
			break
		}
	}
	if !repairFailed {
		if ok, err := e.scrubObject(o); err == nil && ok {
			rep.Repaired++
			return nil
		}
	}
	rep.Unrecovered++
	return nil
}

// stepParity verifies one bounded column range of the current zone's
// parity invariant, repairing as it goes, then advances the cursor;
// after the last zone the cursor wraps to (0, 0), signalling the end of
// the parity phase (and the pass).
//
// Repair order matters for incremental scrubbing: a verify mismatch can
// mean scribbled parity (recompute it from data) or scribbled DATA that
// the object phase of this pass has already moved past — recomputing
// parity over scribbled data would pave over the only redundancy that
// can restore it. So before recomputing, the overlapping live objects
// are checksum-verified and repaired; only a mismatch that survives
// clean objects is treated as stale parity.
func (s *Scrubber) stepParity(rep *ScrubReport) error {
	e := s.e
	if !e.mode.Parity() {
		s.zone, s.col = 0, 0
		return nil
	}
	span := s.cfg.parityBytesPerStep()
	start := s.col
	end := min(start+span, e.geo.RowSize())
	// Bounded convergence: one fix per page column in the range, plus
	// slack for the data-vs-parity disambiguation retries.
	guard := int((end-start)/layout.PageSize) + 16
	// Verification resumes at the last repaired column, never back at
	// the range start: columns below it are already verified and a
	// repair cannot invalidate them, so a range full of stale columns
	// costs one linear sweep, not O(columns²) re-reads under freeze.
	from := start
	for {
		bad, err := e.par.VerifyRange(s.zone, from, end-from)
		if err != nil {
			// A data row turned poisoned between steps (injection races
			// the cursor): repair the page and re-verify rather than
			// failing the step. If the page is beyond repair, quarantine
			// it and skip the rest of the range — it is unverifiable
			// without the page, and wedging the cursor here would stop
			// background verification for the whole pool.
			var pe *nvm.PoisonError
			if errors.As(err, &pe) && guard > 0 {
				guard--
				if rerr := e.repairPage(pe.Off); rerr != nil {
					if !s.badPages[pe.Off] {
						s.badPages[pe.Off] = true
						rep.PagesUnrecovered++
					}
					break
				}
				rep.PagesHealed++
				continue
			}
			return fmt.Errorf("core: scrub parity verify zone %d: %w", s.zone, err)
		}
		if bad < 0 {
			break
		}
		if guard == 0 {
			return fmt.Errorf("core: scrub parity repair not converging in zone %d", s.zone)
		}
		guard--
		col := uint64(bad) &^ uint64(layout.PageSize-1)
		// Scribbled data vs scribbled parity: verify (and repair from
		// parity) the live objects overlapping this column's data pages
		// first. If that repaired anything, re-verify before touching
		// parity. A triage error aborts the step — recomputing parity
		// from data we could not verify would pave over the only
		// redundancy that can restore it.
		if e.mode.Checksums() {
			repaired, err := s.repairObjectsOnColumn(col, rep)
			if err != nil {
				return fmt.Errorf("core: scrub parity triage zone %d col %#x: %w", s.zone, col, err)
			}
			if repaired {
				from = col
				continue
			}
		}
		n := min(uint64(layout.PageSize), e.geo.RowSize()-col)
		if err := e.par.RecomputeColumn(s.zone, col, n); err != nil {
			return err
		}
		rep.ParityFixes++
		from = col
	}
	s.col = end
	if s.col >= e.geo.RowSize() {
		s.col = 0
		s.zone++
		if s.zone >= e.geo.NumZones {
			s.zone = 0
		}
	}
	return nil
}

// repairObjectsOnColumn checksum-verifies every live object overlapping
// the data pages of the given column in the scrubber's current zone,
// repairing mismatches from parity. It reports whether any object was
// repaired (the caller then re-verifies the column before concluding the
// parity itself is stale) and propagates triage errors — the caller
// must NOT recompute parity over data this function failed to verify.
func (s *Scrubber) repairObjectsOnColumn(col uint64, rep *ScrubReport) (bool, error) {
	e := s.e
	// The column's data pages, one per data row.
	lo := make([]uint64, 0, e.geo.DataRows())
	hi := make([]uint64, 0, e.geo.DataRows())
	for r := uint64(0); r < e.geo.DataRows(); r++ {
		base := e.geo.RowByteOff(s.zone, r, col)
		lo = append(lo, base)
		hi = append(hi, base+layout.PageSize)
	}
	overlaps := func(o alloc.ObjectInfo) bool {
		for i := range lo {
			if o.Base < hi[i] && o.Base+o.Capacity > lo[i] {
				return true
			}
		}
		return false
	}
	repairedBefore := rep.Repaired
	// Only this zone's objects can overlap its rows; start the cursor
	// just below the zone's first chunk and stop at the first object of
	// a later zone (address order), so the triage walk is zone-local
	// and stays inside the step's freeze-window budget.
	var objs []alloc.ObjectInfo
	zoneStart := e.geo.ChunkBase(s.zone, 0)
	e.heap.ObjectsFrom(zoneStart-1, func(o alloc.ObjectInfo) bool {
		if o.Zone != s.zone {
			return false
		}
		if overlaps(o) {
			objs = append(objs, o)
		}
		return true
	})
	for _, o := range objs {
		// Not counted in rep.Objects: these verifications are repair
		// triage, not pass coverage (the object cursor still owns that).
		if err := s.scrubOneObject(o, rep); err != nil {
			return rep.Repaired > repairedBefore, err
		}
	}
	return rep.Repaired > repairedBefore, nil
}

// Scrub verifies and restores the whole pool's integrity: every known-bad
// page, every live object's checksum, and every zone's parity invariant.
// It is the compatibility fixpoint loop over Scrubber.Step — the pool is
// no longer frozen for the whole pass, only for each bounded step, so
// transactions and reads interleave between steps (§3.3 "online
// scrubbing"). The report is the merged report of one full pass.
func (e *Engine) Scrub() (ScrubReport, error) {
	sc := e.NewScrubber(ScrubberConfig{})
	total := ScrubReport{ChecksumsVerified: e.mode.Checksums()}
	for {
		rep, done, err := sc.Step()
		total.Add(rep)
		if err != nil {
			return total, err
		}
		if done {
			return total, nil
		}
	}
}

// scrubObject verifies one object's checksum against its header, reading
// raw (the pool is frozen; no recursive recovery).
func (e *Engine) scrubObject(o alloc.ObjectInfo) (bool, error) {
	var hb [layout.ObjHeaderSize]byte
	if err := e.dev.ReadAt(hb[:], o.Base); err != nil {
		return false, nil // poisoned mid-scrub: treat as corrupt
	}
	hdr := layout.DecodeObjHeader(hb[:])
	if hdr.Size < layout.ObjHeaderSize || hdr.Size > o.Capacity {
		return false, nil // implausible header is corruption
	}
	img := make([]byte, hdr.Size)
	if err := e.dev.ReadAt(img, o.Base); err != nil {
		return false, nil
	}
	return layout.ObjChecksum(img) == hdr.Csum, nil
}

// InjectRandomFault corrupts a pseudo-randomly chosen live object — the
// §4.6 fault-injection hook behind the server's INJECT op, for proving
// the maintenance subsystem heals live pools. Even seeds scribble the
// first bytes of the object's checksummed image (software corruption);
// odd seeds poison the page holding it (media error). Both bypass all
// library bookkeeping. It reports false when the pool has no live
// objects. The caller must exclude concurrent transactions (the shard
// worker runs it under its gate).
func (e *Engine) InjectRandomFault(seed int64) bool {
	n := e.heap.CountLive()
	if n == 0 {
		return false
	}
	idx := int(mix64(uint64(seed)) % uint64(n))
	var target alloc.ObjectInfo
	found := false
	i := 0
	e.heap.Objects(func(o alloc.ObjectInfo) bool {
		if i == idx {
			target, found = o, true
			return false
		}
		i++
		return true
	})
	if !found {
		return false
	}
	if seed%2 == 0 {
		// Scribble inside the checksummed image (header + user data) so
		// the object phase detects it; InjectScribble routes through the
		// engine's deterministic scribbler.
		off := target.Base + layout.ObjHeaderSize
		if off+8 > target.Base+target.Capacity {
			off = target.Base
		}
		e.InjectScribble(off, 8, seed)
	} else {
		e.InjectMediaError(target.Base)
	}
	return true
}

// mix64 is the splitmix64 finalizer (decorrelates sequential seeds).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
